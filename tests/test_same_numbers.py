"""``same_numbers.py``, the script a refactor's numbers are compared with,
still runs against the current sources and the benchmark's workloads."""

import same_numbers
from rangepta import pag


def test_numbers_line_is_stable_and_extra_pass_finds_nothing():
    params, gen_seed = same_numbers.WORKLOADS["suite"].programs[0]
    progs = same_numbers.programs([pag.generate_synthetic(params, gen_seed)], seed=1)
    for kind, mode in same_numbers.KINDS:
        line = same_numbers.numbers(progs, kind, mode, 8)
        fields = dict(f.split("=", 1) for f in line.split())
        assert fields["extra"] == "0", (kind, line)
        assert same_numbers.numbers(progs, kind, mode, 8) == line, kind
