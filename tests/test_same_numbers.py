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


# deep has no interfaces, so its lines pin no interface-merged ranged set:
# wide (800 classes, 40 interfaces) at shuffle seed 1, chunk 64, and
# suite's first 10 corpora (4 interfaces each) at seed 1, chunk 8, do
WIDE_SEED1_CHUNK64 = {
    "naive": (
        "members=7733f154f44b chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=5558 pops=1106 attempts=11772 spills=0 bytes=265000 extra=0"
    ),
    "pure": (
        "members=7733f154f44b chunks=ed3330f48f9c savings=3258496/f9da75d862cb"
        " unions=5558 pops=1106 attempts=11772 spills=0 bytes=3818016 extra=0"
    ),
    "hybrid": (
        "members=7733f154f44b chunks=54be0d6272ac savings=6208/e4fa413f3f1a"
        " unions=5558 pops=1106 attempts=11772 spills=49 bytes=1923512 extra=0"
    ),
    "shared": (
        "members=7733f154f44b chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=5558 pops=1106 attempts=11772 spills=0 bytes=365056 extra=0"
    ),
    "sparse": (
        "members=7733f154f44b chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=5558 pops=1106 attempts=11772 spills=0 bytes=398144 extra=0"
    ),
    "ranged": (
        "members=dc2b3b66829c chunks=efbd90b02c78 savings=653504/1f7eb325aa13"
        " unions=6868 pops=1111 attempts=11940 spills=0 bytes=568272 extra=0"
    ),
    "ranged-hybrid": (
        "members=dc2b3b66829c chunks=64759aa7895b savings=2624/edeb9897a1d1"
        " unions=6868 pops=1111 attempts=11940 spills=49 bytes=1916664 extra=0"
    ),
}


SUITE10_SEED1_CHUNK8 = {
    "naive": (
        "members=8675265ac33f chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=2144 pops=470 attempts=3958 spills=0 bytes=62024 extra=0"
    ),
    "pure": (
        "members=8675265ac33f chunks=6f1e5fb81115 savings=99520/cfef90065bc4"
        " unions=2144 pops=470 attempts=3958 spills=0 bytes=176288 extra=0"
    ),
    "hybrid": (
        "members=8675265ac33f chunks=2c34c9324af7 savings=176/39da39e59fc1"
        " unions=2144 pops=470 attempts=3958 spills=32 bytes=331913 extra=0"
    ),
    "shared": (
        "members=8675265ac33f chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=2144 pops=470 attempts=3958 spills=0 bytes=77792 extra=0"
    ),
    "sparse": (
        "members=8675265ac33f chunks=e3b0c44298fc savings=0/e3b0c44298fc"
        " unions=2144 pops=470 attempts=3958 spills=0 bytes=77408 extra=0"
    ),
    "ranged": (
        "members=072a279b31d7 chunks=912c128ac7bb savings=16784/1b4c593efb2c"
        " unions=2152 pops=472 attempts=3962 spills=0 bytes=89248 extra=0"
    ),
    "ranged-hybrid": (
        "members=072a279b31d7 chunks=3af47987b340 savings=72/90e812c42731"
        " unions=2152 pops=472 attempts=3962 spills=32 bytes=331835 extra=0"
    ),
}


def workload_lines(name, seed, chunk, corpora=None):
    """Each kind's line on the first corpora of a workload (all by default)."""
    w = same_numbers.WORKLOADS[name]
    texts = [pag.generate_synthetic(params, s) for params, s in w.programs[:corpora]]
    return same_numbers.numbers(same_numbers.programs(texts, seed=seed), chunk)


def test_wide_numbers_are_pinned():
    assert workload_lines("wide", 1, 64) == WIDE_SEED1_CHUNK64


def test_suite_numbers_are_pinned():
    assert workload_lines("suite", 1, 8, corpora=10) == SUITE10_SEED1_CHUNK8
