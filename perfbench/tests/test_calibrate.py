"""The calibration sampler: samples during a call and leaves its own time out."""

import time

import calibrate
import workloads


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_optimer_subtracts_sampling_and_reports_kernel_time():
    sampler = calibrate.Sampler(period=0.05, reps=1)
    sampler.start()
    try:
        with workloads.OpTimer({"sampler": sampler}) as timer:
            _busy(0.5)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.spent > 0.0
    # the busy loop ends at a fixed wall time, so the time left after
    # sampling is the loop's length less the sampler's share of it
    assert timer.s < 0.5
    assert timer.s + sampler.spent >= 0.5
    assert timer.cal_s == sum(sampler.samples) / len(sampler.samples)
    row = workloads._timing(timer.s, timer.cal_s)
    assert row["op_cal"] == timer.s / timer.cal_s


def test_since_falls_back_to_the_latest_sample():
    sampler = calibrate.Sampler()
    assert sampler.since(sampler.mark()) == (0.0, None)
    sampler.samples.append(0.01)
    sampler.spent = 0.012
    assert sampler.since(sampler.mark()) == (0.0, 0.01)
