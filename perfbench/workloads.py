"""Seeded workloads: the input files and the CLI job list of each.

Everything here is a function of (workload, seed).  Posets come from
posets.py; maps are random combinations of fia's derivation basis,
re-checked against the Leibniz rule by oracle.py, and the non-derivations
are built from them by the two perturbations below.  Each job carries
the answer the oracle expects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle, posets

TRIALS = 20


@dataclass(frozen=True)
class Job:
    """One CLI invocation, the metric its time counts toward, and its answer."""

    id: str
    metric: str
    verb: str
    poset: str
    ring: str | None = None
    map: str | None = None
    mode: str | None = None
    seed: int | None = None
    exit_code: int = 0
    expect: tuple = ()

    def argv(self) -> list[str]:
        group, command = {
            "verify": ("locder", "verify"),
            "lemmas": ("locder", "lemmas"),
            "enumerate": ("theorem", "enumerate"),
            "random": ("theorem", "random"),
            "h1": ("der", "h1"),
            "basis": ("der", "basis"),
            "decompose": ("der", "decompose"),
        }[self.verb]
        args = [group, command, self.poset]
        if self.map is not None:
            args.append(self.map)
        if self.ring is not None:
            args += ["--ring", self.ring]
        if self.mode is not None:
            args += ["--mode", self.mode]
        if self.verb == "random":
            args += ["--trials", str(TRIALS)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args + ["--format", "json"]


@dataclass
class Catalogue:
    """A workload's files (name -> text) and its fixed job list."""

    workload: str
    seed: int
    files: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add_poset(self, spec: posets.PosetSpec) -> str:
        name = f"{spec.name}.poset"
        self.files[name] = spec.text()
        return name


# -- maps -----------------------------------------------------------------


def _ring_params(ring: str):
    return None if ring == "q" else int(ring.split(":")[1])


def _sample(rng, p):
    if p is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(p)


def _to_json(spec, ring, cols) -> str:
    from fia import parse_poset

    p = _ring_params(ring)
    if p is None:
        enc = [[{"num": str(v.numerator), "den": str(v.denominator)} for v in c]
               for c in cols]
    else:
        enc = [[{"res": v % p} for v in c] for c in cols]
    obj = {
        "ring": ring,
        "poset_hash": parse_poset(spec.text()).digest(),
        "columns": enc,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def random_derivation(spec, ring: str, rng) -> list[list]:
    """Columns of a random combination of fia's derivation basis."""
    from fia import derivation_basis, parse_poset, parse_ring

    p = _ring_params(ring)
    basis = derivation_basis(parse_poset(spec.text()), parse_ring(ring))
    n = spec.npairs
    cols = [[Fraction(0) if p is None else 0] * n for _ in range(n)]
    for b in basis:
        c = _sample(rng, p)
        for t in range(n):
            for r in range(n):
                if b.cols[t][r]:
                    cols[t][r] += c * b.cols[t][r]
    if p is not None:
        cols = [[v % p for v in col] for col in cols]
    return cols


def near_miss(cols, p) -> list[list]:
    """The derivation with 1 added at the first row of the last column.

    When the last canonical pair is a diagonal unit e_yy, every
    derivation sends it to a map with zero diagonal coefficients, so the
    exhaustive check must reject at the first probe with a nonzero last
    coordinate, probe p^(npairs-1), after p^(npairs-1) + 1 probes.
    """
    out = [list(col) for col in cols]
    out[-1][0] = (out[-1][0] + 1) % p
    return out


def patchwork(spec, ring, rng, first) -> tuple[list[list], int]:
    """Columns of one derivation up to the middle, another after it.

    Returns the map and its split residual, drawing again until the
    residual is nonzero; a derivation always has residual zero.
    """
    p = _ring_params(ring)
    pairs = spec.pairs()
    half = len(pairs) // 2
    for _ in range(100):
        second = random_derivation(spec, ring, rng)
        cols = first[:half] + second[half:]
        residual = oracle.split_residual(pairs, cols, p)
        if residual:
            return cols, residual
    raise ValueError(f"no patchwork non-derivation found on {spec.name}")


def _add_map(cat: Catalogue, spec, ring, tag, cols, derivation: bool) -> str:
    name = f"{spec.name}.{ring.replace(':', '')}.{tag}.json"
    if oracle.leibniz_holds(spec.pairs(), cols, _ring_params(ring)) != derivation:
        cat.problems.append(f"{name}: Leibniz check disagrees with construction")
    cat.files[name] = _to_json(spec, ring, cols)
    return name


# -- workloads --------------------------------------------------------------


def prime_exhaustive(cat: Catalogue, rng) -> None:
    for spec, p in (
        (posets.chain(3), 3),
        (posets.diamond(), 2),
        (posets.crown(), 3),
        (posets.chain(4), 2),
        (posets.diamond(), 3),
    ):
        ring = f"zp:{p}"
        pname = cat.add_poset(spec)
        n = spec.npairs
        pairs = spec.pairs()
        if pairs[-1][0] != pairs[-1][1] or pairs[0][0] != pairs[0][1]:
            raise ValueError(f"{spec.name}: near-miss needs diagonal end pairs")
        der = random_derivation(spec, ring, rng)
        dname = _add_map(cat, spec, ring, "der", der, True)
        mname = _add_map(cat, spec, ring, "miss", near_miss(der, p), False)
        cat.jobs.append(Job(
            f"verify:{dname}", "verify_pass_s", "verify", pname, map=dname,
            expect=(("verdict", "local_derivation"), ("probes_checked", p ** n)),
        ))
        cat.jobs.append(Job(
            f"verify:{mname}", "verify_reject_s", "verify", pname, map=mname,
            exit_code=1,
            expect=(("verdict", "rejected"), ("probes_checked", p ** (n - 1) + 1)),
        ))
    for spec, p in (
        (posets.antichain(1), 2),
        (posets.antichain(2), 2),
        (posets.chain(2), 2),
        (posets.antichain(3), 2),
        (posets.chain2_point(), 2),
        (posets.antichain(4), 2),
        (posets.chain(2), 3),
    ):
        pname = cat.add_poset(spec)
        n = spec.npairs
        dim_der = n - spec.components() + spec.h1()
        cat.jobs.append(Job(
            f"enumerate:{pname}:zp:{p}", "enumerate_s", "enumerate", pname,
            ring=f"zp:{p}",
            expect=(("verdict", "confirmed"), ("s_der", p ** dim_der),
                    ("s_loc", p ** dim_der), ("probes_checked", p ** (n * n))),
        ))
    for spec in (posets.chain(3), posets.diamond(), posets.crown(), posets.chain(4)):
        _campaign(cat, rng, spec, "zp:2")


def _campaign(cat, rng, spec, ring) -> None:
    pname = cat.add_poset(spec)
    seed = rng.randrange(1 << 31)
    cat.jobs.append(Job(
        f"random:{pname}:{ring}", "campaign_s", "random", pname, ring=ring,
        seed=seed,
        expect=(("verdict", "confirmed"), ("s_der", TRIALS), ("s_loc", TRIALS),
                ("trials", TRIALS), ("seed", seed)),
    ))


def q_basis(cat: Catalogue, rng) -> None:
    randoms = [
        posets.random_spec(f"random{n}", n, npairs, rng)
        for n, npairs in ((16, 56), (20, 64), (24, 72))
    ]
    for spec in [posets.chain(12), posets.chain(14), posets.complete_bipartite(4),
                 posets.complete_bipartite(6)] + randoms:
        pname = cat.add_poset(spec)
        dim_inner = spec.npairs - spec.components()
        expect = [("dim_inner", dim_inner)]
        if spec.h1() is not None:
            expect += [("h1", spec.h1()), ("dim_derivations", dim_inner + spec.h1())]
        cat.jobs.append(Job(f"h1:{pname}", "basis_s", "h1", pname, ring="q",
                    expect=tuple(expect)))
    for spec in (posets.chain(10), posets.chain(12), posets.complete_bipartite(6)):
        pname = cat.add_poset(spec)
        dim = spec.npairs - spec.components() + spec.h1()
        cat.jobs.append(Job(f"basis:{pname}", "basis_s", "basis", pname, ring="q",
                    expect=(("dimension", dim),)))
    for spec in (posets.chain(6), posets.diamond(), posets.crown(),
                 posets.complete_bipartite(4)):
        pname = cat.add_poset(spec)
        der = random_derivation(spec, "q", rng)
        bad, residual = patchwork(spec, "q", rng, der)
        for tag, cols, res in (("der", der, 0), ("patch", bad, residual)):
            mname = _add_map(cat, spec, "q", tag, cols, res == 0)
            cat.jobs.append(Job(f"decompose:{mname}", "check_s", "decompose", pname,
                        map=mname, expect=(("residual", res),)))
            lemma_seed = rng.randrange(1 << 31)
            if res == 0:
                expect = (("all_pass", True),)
            else:
                expect = (("all_pass", False), ("checks.reduced_support", False))
            cat.jobs.append(Job(f"lemmas:{mname}", "check_s", "lemmas", pname, map=mname,
                        seed=lemma_seed, exit_code=0 if res == 0 else 1,
                        expect=expect))


def span_campaign(cat: Catalogue, rng) -> None:
    specs = [posets.chain(3), posets.diamond(), posets.crown(), posets.chain(4),
             posets.random_spec("random6a", 6, 12, rng),
             posets.random_spec("random6b", 6, 12, rng)]
    for ring in ("q", "zp:101"):
        for spec in specs:
            _campaign(cat, rng, spec, ring)
    for spec in (posets.chain(6), posets.chain(7), posets.diamond(), posets.crown()):
        pname = cat.add_poset(spec)
        der = random_derivation(spec, "q", rng)
        mname = _add_map(cat, spec, "q", "der", der, True)
        cat.jobs.append(Job(f"verify:{mname}:spanning", "verify_pass_s", "verify", pname,
                    map=mname, mode="spanning", seed=rng.randrange(1 << 31),
                    expect=(("verdict", "inconclusive"), ("mode", "spanning"))))


WORKLOADS = {
    "prime-exhaustive": prime_exhaustive,
    "q-basis": q_basis,
    "span-campaign": span_campaign,
}


def build(workload: str, seed: int) -> Catalogue:
    """The files and jobs of one workload; the same seed gives the same bytes."""
    cat = Catalogue(workload, seed)
    WORKLOADS[workload](cat, random.Random(f"{workload}:{seed}"))
    return cat
