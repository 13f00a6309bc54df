"""Seeded workloads: the argv lists one pass of each workload runs.

The program sees only the generated argv; the seed stays in the
benchmark.  Wherever a random choice would change how much work a
command does (two_s, dim, exponents, fixed-space degree) the value is
fixed by the command's slot, and the seed draws only what leaves the
cost and the check outcomes alike from seed to seed: signs, rational
coefficients of fixed size, the low-order tail of each polynomial and
the order of the commands.  Otherwise the spread across seeds would
swamp the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import sqrt

# spin_dense: one large spin; the superoperator has (two_s + 1)^4 entries.
SPIN_DENSE_TWO_S = 30

# fock_tight: the sizing the README recommends for tight damping ratios.
FOCK_TIGHT_DIM = 160
FOCK_TIGHT_RADIUS = 6.3

# order_exact: (exponent of the leading linear form, --fixed-space N) per
# slot.  The pair of symbols in each slot's linear form is fixed too, and
# each pair has nonzero a and a† parts, so every leading power expands to
# the full triangle of a†^m a^n terms.
ORDER_EXACT_SLOTS = ((32, 12), (28, 10), (24, 8), (18, 6), (12, 4), (8, 2))
LINEAR_PAIRS = (("a", "ad"), ("q", "p"), ("a", "p"), ("ad", "q"), ("q", "ad"), ("p", "a"))

# The known crash: the normal form of (q+p)^62 has 1024 terms, and
# re-parsing it recurses past Python's limit.
CRASH_PROBE = ("order", "(q+p)^62")

# cli_small: README-sized commands.  Every fock sizing lies in the range
# the CLI accepts (dim 8..200, radius <= sqrt(dim)/2); radius is the given
# share of that limit.  dim < 16 is left out because it raises
# TruncationError today (the 50-point overlap checks draw |alpha| up to 2).
CLI_SMALL_SPIN_TWO_S = tuple(range(1, 13))
CLI_SMALL_FOCK = ((16, 0.9), (24, 0.6), (32, 0.9), (40, 0.6))
CLI_SMALL_ORDER_SLOTS = ((6, 5), (5, 4), (4, 3), (3, 2), (2, 1), (2, 0))

SYMBOLS = ("a", "ad", "q", "p")
LINEAR_PRIMES = (2, 3, 5, 7)
LEAD_PRIMES = (11, 13)


@dataclass(frozen=True)
class Workload:
    """One pass of CLI commands plus what the benchmark needs to check them."""

    name: str
    commands: tuple          # tuple of argv tuples
    sizings: dict
    writes_reports: bool = False
    warm_up: bool = False    # run one untimed pass to fill the ordering engine's caches
    probe: tuple | None = None
    fixed_space: dict = field(default_factory=dict)  # command index -> N


def _ratio(rng: random.Random, primes) -> str:
    numerator, denominator = rng.sample(primes, 2)
    return f"{numerator}/{denominator}"


def _polynomial(rng: random.Random, exponent: int, pair) -> str:
    """±c*(±u*x ± v*y)^exponent ± w*i*s^j*t^k, the rationals seeded.

    u and v split the primes 2, 3, 5, 7 between them, and c is 11/13 or
    13/11, so the coefficients of every expansion have about the same
    size whatever the seed.
    """
    x, y = pair
    p = rng.sample(LINEAR_PRIMES, 4)
    u, v = f"{p[0]}/{p[1]}", f"{p[2]}/{p[3]}"
    lead = (f"{rng.choice(('', '-'))}{_ratio(rng, LEAD_PRIMES)}*"
            f"({rng.choice(('', '-'))}{u}*{x} {rng.choice('+-')} {v}*{y})^{exponent}")
    s, t = rng.choice(SYMBOLS), rng.choice(SYMBOLS)
    tail = f"{_ratio(rng, LINEAR_PRIMES)}*i*{s}^{rng.randint(1, 3)}*{t}^{rng.randint(1, 3)}"
    return f"{lead} {rng.choice('+-')} {tail}"


def _order_commands(rng: random.Random, slots):
    commands, fixed = [], {}
    for index, (exponent, degree) in enumerate(slots):
        pair = LINEAR_PAIRS[index % len(LINEAR_PAIRS)]
        fixed[index] = degree
        commands.append(("order", _polynomial(rng, exponent, pair),
                         "--fixed-space", str(degree)))
    return commands, fixed


def _radius(dim: int, share: float) -> str:
    return f"{share * sqrt(dim) / 2:.2f}"


def build(name: str, seed: int) -> Workload:
    """The workload's commands for this seed; equal seeds give equal argv."""
    rng = random.Random(f"luderskit-bench:{name}:{seed}")
    if name == "spin_dense":
        return Workload(name, (("spin", "--two-s", str(SPIN_DENSE_TWO_S)),),
                        {"two_s": SPIN_DENSE_TWO_S})
    if name == "fock_tight":
        return Workload(
            name,
            (("fock", "--dim", str(FOCK_TIGHT_DIM), "--radius", str(FOCK_TIGHT_RADIUS)),),
            {"dim": FOCK_TIGHT_DIM, "radius": FOCK_TIGHT_RADIUS,
             "grid": "40x64 (fixed in the CLI)"},
        )
    if name == "order_exact":
        commands, fixed = _order_commands(rng, ORDER_EXACT_SLOTS)
        return Workload(name, tuple(commands),
                        {"slots": [list(s) for s in ORDER_EXACT_SLOTS]},
                        warm_up=True, probe=CRASH_PROBE, fixed_space=fixed)
    if name == "cli_small":
        commands, fixed = _order_commands(rng, CLI_SMALL_ORDER_SLOTS)
        commands += [("spin", "--two-s", str(s)) for s in CLI_SMALL_SPIN_TWO_S]
        commands += [("fock", "--dim", str(d), "--radius", _radius(d, share))
                     for d, share in CLI_SMALL_FOCK]
        order = list(range(len(commands)))
        rng.shuffle(order)
        return Workload(
            name,
            tuple(commands[i] for i in order),
            {"spin_two_s": list(CLI_SMALL_SPIN_TWO_S),
             "fock": [[d, float(_radius(d, share))] for d, share in CLI_SMALL_FOCK],
             "order_slots": [list(s) for s in CLI_SMALL_ORDER_SLOTS]},
            writes_reports=True,
            warm_up=True,
            fixed_space={new: fixed[old] for new, old in enumerate(order) if old in fixed},
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("spin_dense", "fock_tight", "order_exact", "cli_small")
