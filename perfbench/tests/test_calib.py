"""Reference seconds: which yardstick samples judge a command."""

import calib
import child


def yardstick(times, slowness):
    yard = child.Yardstick()
    yard.times, yard.samples = list(times), list(slowness)
    return yard


def test_a_short_command_is_judged_by_the_samples_around_it():
    # Samples at t = 0..9 s; the command runs 4.5-4.6 s, between the
    # samples at 4 and 5 s.
    yard = yardstick(range(10), [1.0] * 4 + [2.0, 6.0] + [1.0] * 4)
    got = yard.reference(1.0, 4.5, 4.6)
    assert abs(got - calib.to_reference(1.0, 4.0)) < 1e-12


def test_a_long_command_is_judged_by_every_sample_during_it():
    yard = yardstick(range(10), [1.0, 1.0] + [4.0] * 6 + [1.0, 1.0])
    # 2.5-6.5 s: samples at 3..6 s during it, 2 and 7 s on either side.
    got = yard.reference(1.0, 2.5, 6.5)
    assert abs(got - calib.to_reference(1.0, 4.0)) < 1e-12


def test_the_neighbours_count_when_no_sample_is_near():
    yard = yardstick([0.0, 10.0], [1.0, 3.0])
    got = yard.reference(1.0, 5.0, 5.1)
    assert abs(got - calib.to_reference(1.0, 2.0)) < 1e-12


def test_the_memory_part_runs_only_when_weighed(monkeypatch):
    calls = []
    monkeypatch.setattr(calib, "_memory", lambda: calls.append(1))
    assert calib.sample(0.0)[0] > 0 and calls == []
    assert calib.sample(0.5)[0] > 0 and calls == [1]


def test_reference_seconds_only_when_calibrating(tmp_path):
    cmds = [{"id": 0, "argv": ["x"]}]

    def main(argv):
        sum(range(10**5))
        return 0
    plain = child.run_commands(cmds, main, 5.0, str(tmp_path))
    traced = child.run_commands(cmds, main, 5.0, str(tmp_path),
                                calibrate=False)
    assert plain[0]["ref_s"] > 0
    assert "ref_s" not in traced[0]
