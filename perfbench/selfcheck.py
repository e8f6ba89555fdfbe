"""Self-check of the benchmark's known answers and counts.

    python3 perfbench/selfcheck.py [--instances 40]

Run from the root of a source checkout.  It confirms, on small instances,
that the answers gen.py derives from each construction agree with exhom:

* zigzag double complexes, on both axes: every page, every d_r rank, the
  limit, the stable page, the filtration dims and oppositeness verdicts;
* planted Smith forms exactly, and the invariant checks for uniform
  matrices (including that a corrupted diagonal is rejected);
* chain complexes: integral homology and the universal-coefficient table.

It also checks that two manifests built from one seed are identical and
that two traced passes over the same requests give identical counts.
Exit status 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import gen  # noqa: E402
from exhom import spectral  # noqa: E402
from exhom.complexes import homology_int, uct_check  # noqa: E402
from exhom.documents import (  # noqa: E402
    parse_chain_document,
    parse_double_complex_document,
    parse_int_matrix_document,
)
from exhom.zlinalg import smith_normal_form  # noqa: E402

AXES = {"col": spectral.COLUMN, "row": spectral.ROW}


class Checker:
    def __init__(self):
        self.failures = []
        self.checked = Counter()

    def expect(self, what: str, got, want) -> None:
        self.checked[what.split(":")[0]] += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, expected {want!r}")


def check_zigzags(ck: Checker, rng: random.Random, instances: int) -> Counter:
    """Compare every page of exhom's spectral sequences with the zigzag
    construction; returns the total d_r ranks seen, by r."""
    ranks: Counter = Counter()
    for i in range(instances):
        Z = gen.random_zigzag_complex(rng, rng.randint(6, 16))
        K = parse_double_complex_document(json.dumps(Z.document(rng)))
        for name, axis in AXES.items():
            P = spectral.spectral_pages(K, axis)
            for r in sorted(P.pages):
                got = {pq: d for pq, (d, _) in P.pages[r].items()}
                ck.expect(f"page: instance {i} axis {name} E_{r}", got,
                          Z.page_dims(name, r))
            ck.expect(f"d_r: instance {i} axis {name}", P.d_ranks,
                      Z.d_ranks(name))
            ck.expect(f"stable: instance {i} axis {name}", P.stable_page,
                      Z.stable_page(name))
            last = max(P.pages)
            ck.expect(f"limit: instance {i} axis {name}", P.limit,
                      Z.page_dims(name, last))
            for (r, _, _), rk in P.d_ranks.items():
                ranks[r] += rk
        n = gen.oppose_degree(rng, Z)
        F = spectral.filtration_on_total(K, spectral.COLUMN, n)
        G = spectral.filtration_on_total(K, spectral.ROW, n)
        f, g = Z.filtration_dims(n)
        ck.expect(f"oppose: instance {i} n={n} col dims", list(F.dims()), f)
        ck.expect(f"oppose: instance {i} n={n} row dims", list(G.dims()), g)
        got = (f"col dims {' '.join(map(str, F.dims()))}\n"
               f"row dims {' '.join(map(str, G.dims()))}\n"
               f"opposite {str(spectral.opposite_check(F, G)).lower()}\n"
               f"dimension_criterion "
               f"{str(spectral.dimension_criterion(F, G)).lower()}\n")
        ck.expect(f"oppose: instance {i} n={n} verdicts", got,
                  Z.expected_oppose(n))
    return ranks


def check_snf(ck: Checker, rng: random.Random, instances: int) -> None:
    for i in range(instances):
        rows, cols = rng.randint(4, 12), rng.randint(4, 12)
        A, t = gen.planted_matrix(rng, rows, cols)
        snf = smith_normal_form(parse_int_matrix_document(json.dumps(A)))
        ck.expect(f"planted: instance {i}", list(snf.diagonal), t)
        U = gen.uniform_matrix(rng, rng.randint(4, 12))
        inv = gen.uniform_invariants(U)
        diag = smith_normal_form(parse_int_matrix_document(json.dumps(U)))
        line = " ".join(map(str, diag.diagonal))
        ck.expect(f"uniform: instance {i}", gen.check_snf_line(line, inv), None)
        wrong = list(diag.diagonal)
        wrong[-1] = wrong[-1] * 2 if wrong[-1] else 1
        ck.expect(f"uniform-rejects: instance {i}",
                  gen.check_snf_line(" ".join(map(str, wrong)), inv) is None,
                  False)


def invariant_factors(ms) -> tuple:
    """Invariant factors (>= 2) of the direct sum of Z/m over ms."""
    powers = {}
    for m in ms:
        p = 2
        while m > 1:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    out = [1] * length
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            out[length - 1 - k] *= q
    return tuple(out)


def check_chains(ck: Checker, rng: random.Random, instances: int) -> None:
    for i in range(instances):
        C = gen.random_chain_complex(rng)
        K = parse_chain_document(json.dumps(C.document(rng)))
        for n in sorted(C.gens):
            H = homology_int(K, n)
            torsion = [m for m in C.arrows.get(n + 1, ()) if m > 1]
            ck.expect(f"homology: instance {i} H_{n}",
                      (H.free_rank, H.torsion),
                      (C.lone(n), invariant_factors(torsion)))
        p = rng.choice(gen.UCT_SMALL_PRIMES)
        ck.expect(f"uct: instance {i} mod {p}", uct_check(K, p).render() + "\n",
                  C.expected_uct(p))


def check_determinism(ck: Checker) -> None:
    """Two manifests from one seed match, and two traced passes over the
    same requests give the same counts."""
    from run import Runner
    from spans import Tracer
    from exhom import cli

    with tempfile.TemporaryDirectory(dir=".") as a, \
            tempfile.TemporaryDirectory(dir=".") as b:
        for workload in gen.WORKLOADS:
            ma = gen.build(workload, 7, 3, a)
            mb = gen.build(workload, 7, 3, b)
            ck.expect(f"determinism: {workload} input hash",
                      ma["input_sha256"], mb["input_sha256"])
            runner = Runner(cli)
            seen = []
            for _ in range(2):
                tracer = Tracer()
                tracer.install()
                try:
                    for rid, req in enumerate(ma["requests"]):
                        tracer.begin(rid)
                        runner.call(req["argv"])
                        tracer.end()
                finally:
                    tracer.uninstall()
                seen.append((dict(tracer.counts), dict(tracer.calls())))
            ck.expect(f"determinism: {workload} traced counts", seen[0],
                      seen[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark self-check")
    ap.add_argument("--instances", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(f"selfcheck:{args.seed}")
    ck = Checker()
    ranks = check_zigzags(ck, rng, args.instances)
    check_snf(ck, rng, args.instances)
    check_chains(ck, rng, max(1, args.instances // 4))
    check_determinism(ck)
    print(f"zigzag instances: {args.instances} x 2 axes; total d_r ranks "
          + " ".join(f"d_{r}={ranks[r]}" for r in sorted(ranks)))
    print("checks: " + ", ".join(f"{k} {v}" for k, v in sorted(ck.checked.items())))
    for line in ck.failures[:20]:
        print("MISMATCH " + line)
    print(f"selfcheck: {'PASS' if not ck.failures else 'FAIL'} "
          f"({len(ck.failures)} mismatches)")
    return 0 if not ck.failures else 1


if __name__ == "__main__":
    sys.exit(main())
