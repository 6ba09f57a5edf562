"""The benchmark's workloads: which escount commands each one runs.

A workload is a list of commands. Each command is the argv of one
`escount.cli.main` call and the (group, n) cases whose counts it prints.
Group specs are written as a user would type them; `pins.json` maps each
to the canonical spec that escount prints, so the benchmark's parent
process never imports the program.
"""
from __future__ import annotations

import random

# Cyclic groups whose counts go through the numtheory and closed_form
# cycle-type sums and never enumerate automorphisms.
CYCLIC_GROUPS = ("C12", "C360", "C343", "C4096", "C8640", "C720720")
CYCLIC_NS = (25, 10)

# Every non-cyclic group of order <= 64 that is in budget at n=2 and takes
# under about 3 s: automorphism enumeration, permutation building and the
# GL(s, p) matrix scan dominate, while n=2 has only two cycle types.
AUT_HEAVY_GROUPS = (
    "C2xC4", "C2^2xC3", "C2^2xC4", "C3xC9", "C4xC4", "C2^2xC8", "C2^2xC3^2",
    "C2^3xC3", "C2^3xC5", "C2xC4xC4", "C2xC4xC8", "C2^3", "C3^2", "C5^2",
    "C7^2", "C3^3", "C2^4",
)

# Every method, naive oracle included, on small groups. Order 16 stays out of
# the verify sweep: there C2^4's 20,160 automorphisms make it aut-heavy again.
ORACLE_VERIFY = (15, 2)
ORACLE_COUNTS = (
    ("C2", 7), ("C3", 5), ("C4", 4), ("C2^2xC4", 2), ("C4xC4", 2),
    ("C16", 2), ("C2xC8", 2), ("C2^3", 2),
)

# The reach grid: (spec, n, method, status at the seed). "reached" cases take
# under 0.5 s, "slow" ones over 2 s, "refused" ones exit 3 on the default
# budget. The grid keeps clear of the 1 s limit so the counts repeat exactly.
# A case with no pinned value runs with --method all, so that it counts only
# when every method that runs agrees.
REACH_CASES = (
    ("C4096", 25, "closed", "reached"),
    ("C720720", 25, "closed", "reached"),
    ("C3xC9", 25, "closed", "reached"),
    ("C7^2", 10, "closed", "reached"),
    ("C2^3xC3", 2, "closed", "reached"),
    ("C12", 40, "closed", "slow"),
    ("C360", 40, "closed", "slow"),
    ("C5^2", 25, "closed", "slow"),
    ("C2^4", 2, "closed", "slow"),
    ("C2xC4xC8", 2, "closed", "slow"),
    ("C2^3xC4", 2, "closed", "slow"),
    ("C2^4", 1, "naive", "slow"),
    ("C2^5", 2, "all", "refused"),
    ("C3^4", 2, "all", "refused"),
    ("C5^3", 2, "all", "refused"),
    ("C2^4xC4", 1, "all", "refused"),
    ("C3^2xC9", 2, "all", "refused"),
    ("C2^4", 2, "naive", "refused"),
)

# Smoke mode: one tiny case per workload, for the benchmark's own tests.
SMOKE_CYCLIC = (("C12", "C343"), 3)
SMOKE_AUT = ("C2xC4",)
SMOKE_ORACLE_VERIFY = (3, 1)
SMOKE_ORACLE_COUNTS = (("C2", 2),)
SMOKE_REACH = (
    ("C4096", 5, "closed", "reached"),
    ("C2^5", 2, "all", "refused"),
)

WORKLOADS = ("cyclic-long-n", "aut-heavy", "oracle-scan", "reach")


def case_key(canonical: str, n: int) -> str:
    """Key of one (group, n) case in pins.json."""
    return f"{canonical}|{n}"


def _count(pins: dict, spec: str, n: int, method: str = "closed") -> dict:
    return {
        "argv": ["count", "--group", spec, "--n", str(n), "--method", method,
                 "--format", "json"],
        "cases": [case_key(pins["canonical"][spec], n)],
    }


def _table(pins: dict, specs: list[str], n: int) -> dict:
    return {
        "argv": ["table", "--groups", ",".join(specs), "--n", str(n),
                 "--format", "json"],
        "cases": [case_key(pins["canonical"][spec], n) for spec in specs],
    }


def _verify(pins: dict, max_order: int, max_n: int) -> dict:
    sweep = pins["verify"][f"{max_order}|{max_n}"]
    return {
        "argv": ["verify", "--max-order", str(max_order), "--max-n", str(max_n),
                 "--format", "json"],
        "cases": sweep["cases"],
        "references": sweep["references"],
    }


def build_commands(name: str, rng: random.Random, pins: dict,
                   smoke: bool = False) -> list[dict]:
    """The commands of one workload, in an order shuffled by `rng`.

    Reach commands also carry `status`, the case's class at the seed commit.
    """
    if name == "cyclic-long-n":
        groups, ns = (list(SMOKE_CYCLIC[0]), (SMOKE_CYCLIC[1],)) if smoke else (
            list(CYCLIC_GROUPS), CYCLIC_NS)
        commands = []
        for n in ns:
            rng.shuffle(groups)
            commands.append(_table(pins, list(groups), n))
    elif name == "aut-heavy":
        commands = [_count(pins, spec, 2) for spec in (SMOKE_AUT if smoke else AUT_HEAVY_GROUPS)]
    elif name == "oracle-scan":
        verify = SMOKE_ORACLE_VERIFY if smoke else ORACLE_VERIFY
        counts = SMOKE_ORACLE_COUNTS if smoke else ORACLE_COUNTS
        commands = [_verify(pins, *verify)] + [
            _count(pins, spec, n, "all") for spec, n in counts
        ]
    elif name == "reach":
        commands = []
        for spec, n, method, status in (SMOKE_REACH if smoke else REACH_CASES):
            command = _count(pins, spec, n, method)
            command["status"] = status
            commands.append(command)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng.shuffle(commands)
    return commands
