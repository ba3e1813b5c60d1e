"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed and the scale, so one seed always
gives the same argv lists.  The program under test sees only the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# (p, q) pairs for requests: every order up to 3 except the costliest (3, 3)
REQUEST_PQ = tuple((p, q) for p in (1, 2, 3) for q in (1, 2, 3) if (p, q) != (3, 3))


@dataclass(frozen=True)
class Grid:
    """One audit grid: its CLI flags and the label of its stored digests."""

    label: str
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    grid: Grid
    max_index: int  # largest n, m of a compute request
    max_terms: int  # most terms in a heat datum
    max_degree: int  # largest total degree of a heat datum term
    probes: int  # measured set-up probes per run
    requests: int  # requests per pass of the requests workload


FULL = Scale(
    grid=Grid("full", ("--nmax", "4", "--mmax", "4", "--aux-max", "2")),
    max_index=16,
    max_terms=60,
    max_degree=50,
    probes=7,
    requests=200,
)

# seconds-long configuration for the self-tests
TINY = Scale(
    grid=Grid("tiny", ("--nmax", "1", "--mmax", "1", "--aux-max", "0", "--jk-max", "1", "--trials", "1")),
    max_index=3,
    max_terms=4,
    max_degree=4,
    probes=1,
    requests=6,
)


def audit_argv(grid: Grid, jobs: int, audit_seed: int) -> list[str]:
    return ["audit", *grid.flags, "--jobs", str(jobs), "--seed", str(audit_seed)]


@dataclass(frozen=True)
class Request:
    """One request: the argv, plus what its output is checked against."""

    kind: str  # "compute" or "heat"
    argv: list[str]
    pq: tuple[int, int]
    nm: tuple[int, int] = (0, 0)  # compute: the family indices
    datum: dict | None = None  # heat: {(dz, dw): Fraction}, zero terms dropped


class _Deck:
    """Draws without replacement from `size` values spread evenly over `values`.

    With `size` equal to the requests of one kind in a pass, every pass holds
    the same mix of orders and sizes; the seed decides how they pair up, their
    order, and the remaining details.  So the seed changes which requests run
    but hardly how costly a pass is.
    """

    def __init__(self, rng: random.Random, values, size: int):
        values = list(values)
        self._rng = rng
        self._deck = [values[i * len(values) // size] for i in range(size)]
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = self._deck[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


def requests(seed: int, scale: Scale):
    """Endless seeded stream alternating compute and heat requests."""
    rng = random.Random(seed)
    size = max(1, scale.requests // 2)
    pq = _Deck(rng, REQUEST_PQ, size)
    index_sum = _Deck(rng, range(2 * scale.max_index + 1), size)
    heat_pq = _Deck(rng, REQUEST_PQ, size)
    terms = _Deck(rng, range(1, scale.max_terms + 1), size)
    while True:
        p, q = pq.draw()
        total = index_sum.draw()
        n = rng.randint(max(0, total - scale.max_index), min(total, scale.max_index))
        m = total - n
        argv = ["compute", "--p", str(p), "--q", str(q), "--n", str(n), "--m", str(m),
                "--strategy", "all", "--format", "json"]
        yield Request("compute", argv, (p, q), nm=(n, m))
        yield _heat(rng, scale, heat_pq.draw(), terms.draw())


def _heat(rng: random.Random, scale: Scale, pq: tuple[int, int], count: int) -> Request:
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    datum: dict[tuple[int, int], Fraction] = {}
    chunks = []
    for i in range(count):
        dz = rng.randint(0, scale.max_degree)
        dw = rng.randint(0, scale.max_degree - dz)
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
        datum[(dz, dw)] = datum.get((dz, dw), Fraction(0)) + coeff
        sign = "-" if coeff < 0 else ("+" if i else "")
        chunks.append(f"{sign}{abs(coeff.numerator)}/{coeff.denominator}*z^{dz}*w^{dw}")
    datum = {key: value for key, value in datum.items() if value}
    # "--initial=..." keeps a leading minus sign from reading as a flag
    argv = ["heat", "--p", str(pq[0]), "--q", str(pq[1]), f"--c={c}",
            "--initial=" + " ".join(chunks), "--format", "json"]
    return Request("heat", argv, pq, datum=datum)


def genseries_reuse_share(done: list[Request]) -> float:
    """Share of compute requests whose (p, q, n+m) series an earlier one built."""
    seen = set()
    repeats = total = 0
    for request in done:
        if request.kind != "compute":
            continue
        key = (*request.pq, sum(request.nm))
        total += 1
        repeats += key in seen
        seen.add(key)
    return repeats / total if total else 0.0
