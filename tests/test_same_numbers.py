"""``same_numbers.py``, the script a refactor's numbers are compared with,
still runs against the current sources and the benchmark's workloads."""

import same_numbers
from rangepta import pag


def test_numbers_line_is_stable_and_extra_pass_finds_nothing():
    params, gen_seed = same_numbers.WORKLOADS["suite"].programs[0]
    progs = same_numbers.programs([pag.generate_synthetic(params, gen_seed)], seed=1)
    lines = same_numbers.numbers(progs, 8)
    assert list(lines) == [kind for kind, _ in same_numbers.KINDS]
    for kind, line in lines.items():
        fields = dict(f.split("=", 1) for f in line.split())
        assert fields["extra"] == "0", (kind, line)
    assert same_numbers.numbers(progs, 8) == lines


def test_each_kernel_is_solved_and_checked_once_per_corpus(monkeypatch):
    # seven kinds on four kernels: one solve and one extra pass of each
    # corpus per kernel, whose siblings are charged by relabelling
    calls = {"propagate": 0, "run_extra_pass": 0}
    for name in calls:
        real = getattr(same_numbers.solver, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(same_numbers.solver, name, counted)
    params, gen_seed = same_numbers.WORKLOADS["suite"].programs[0]
    text = pag.generate_synthetic(params, gen_seed)
    progs = same_numbers.programs([text, text], seed=0)
    assert len(same_numbers.numbers(progs, 8)) == 7
    assert calls == {"propagate": 4 * 2, "run_extra_pass": 4 * 2}


# deep at shuffle seed 1, chunk 8, where a load grows its own base in the
# middle of walks over every object of the base: a walk that also visited
# the objects its base gained during the walk changed these lines, with
# the same members and extra=0, where no other pinned number moved
DEEP_SEED1_CHUNK8 = {
    "naive": (
        "members=074cde942140 chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=8751 pops=66 attempts=33062 spills=0 bytes=786864 extra=0"
    ),
    "pure": (
        "members=074cde942140 chunks=576e4ce710c4 savings=3297952/6f4c0332b196"
        " unions=8751 pops=66 attempts=33062 spills=0 bytes=3610880 extra=0"
    ),
    "hybrid": (
        "members=074cde942140 chunks=d94fdf24227b savings=1114592/25ee35f963ae"
        " unions=8751 pops=66 attempts=33062 spills=1743 bytes=1997088 extra=0"
    ),
    "shared": (
        "members=074cde942140 chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=8751 pops=66 attempts=33062 spills=0 bytes=493032 extra=0"
    ),
    "sparse": (
        "members=074cde942140 chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=8751 pops=66 attempts=33062 spills=0 bytes=696192 extra=0"
    ),
    "ranged": (
        "members=add961c6ac24 chunks=f9457d7ac67c savings=43232/776deb89a0d1"
        " unions=8751 pops=66 attempts=33062 spills=0 bytes=322654 extra=0"
    ),
    "ranged-hybrid": (
        "members=add961c6ac24 chunks=dfaf50cddbcf savings=88/4cc8815bfba8"
        " unions=8751 pops=66 attempts=33062 spills=2706 bytes=922946 extra=0"
    ),
}


def test_deep_numbers_are_pinned():
    w = same_numbers.WORKLOADS["deep"]
    texts = [pag.generate_synthetic(params, s) for params, s in w.programs]
    progs = same_numbers.programs(texts, seed=1)
    lines = same_numbers.numbers(progs, 8)
    for kind, _ in same_numbers.KINDS:
        assert lines[kind] == DEEP_SEED1_CHUNK8[kind], kind
