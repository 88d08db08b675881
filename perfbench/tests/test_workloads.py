"""The seeded scripts."""

import workloads


def test_no_script_holds_a_warmup_input():
    for name, warmup in workloads.WARMUP.items():
        for seed in range(1, 6):
            argvs = [c["argv"] for c in workloads.build(name, seed)]
            assert not any(w in argvs for w in warmup), (name, seed)
