"""Seeded inputs of the benchmark workloads.

The seed only decides what the generators leave open: the order in which
an offline pass submits its queries, and for ``daemon-zipf`` the request
stream drawn over a fixed corpus.  The programs of the three offline
workloads are fixed by the paper's tables, and every query's expected
verdict is known without running the engine under test.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.baselines import run_bebop, run_moped
from repro.benchgen import (
    DriverSpec,
    TerminatorSpec,
    make_bluetooth,
    make_driver,
    make_terminator,
    random_program_source,
    regression_suite,
)
from repro.boolprog import parse_program
from repro.frontends import resolve_target
from repro.parallel import BatchQuery

#: Globals of the ``width-chain`` programs, one query each.
CHAIN_WIDTHS = (25, 50, 75, 100, 125)

#: Figure 3 cases ``(name, adders, stoppers, context switches, reachable)``.
#: The reachable k=3 cases take 17-28 s each and are left out for run length.
BLUETOOTH_CASES = (
    ("1A1S", 1, 1, 1, False),
    ("1A1S", 1, 1, 2, False),
    ("1A2S", 1, 2, 2, False),
)

#: ``daemon-zipf`` corpus size and generator seed, Zipf exponent and target label.
CORPUS_SIZE = 64
CORPUS_SEED = 1
ZIPF_EXPONENT = 1.1
CORPUS_TARGET = "main:target"


def _shuffled(queries: List[BatchQuery], seed: int) -> List[BatchQuery]:
    random.Random(seed).shuffle(queries)
    return queries


def fig2_queries(seed: int) -> List[BatchQuery]:
    """The Figure 2 EFopt sweep: regression, driver and terminator suites (32 queries)."""
    queries = [
        BatchQuery(name=case.name, program=case.program, target=case.target,
                   algorithm="ef-opt", expected=case.expected)
        for positive in (True, False)
        for case in regression_suite(positive)
    ]
    for positive in (True, False):
        for handlers in (2, 3):
            spec = DriverSpec(
                name=f"driver-{handlers}-{'pos' if positive else 'neg'}",
                handlers=handlers,
                flags=min(4, handlers),
                helpers=max(1, handlers // 2),
                positive=positive,
            )
            queries.append(BatchQuery(name=spec.name, program=make_driver(spec),
                                      target=spec.target, algorithm="ef-opt",
                                      expected=positive))
    for positive in (True, False):
        for bits in (2, 3):
            for variant in ("iterative", "schoose"):
                spec = TerminatorSpec(
                    name=f"terminator-{variant}-{bits}b-{'pos' if positive else 'neg'}",
                    counter_bits=bits,
                    variant=variant,
                    positive=positive,
                )
                queries.append(BatchQuery(name=spec.name, program=make_terminator(spec),
                                          target=spec.target, algorithm="ef-opt",
                                          expected=positive))
    return _shuffled(queries, seed)


def chain_source(width: int) -> str:
    """``g0 := *; g_i := g_{i-1}; if (g{n-1}) then target`` — reachable by construction."""
    names = [f"g{i}" for i in range(width)]
    body = ["g0 := *;"] + [f"g{i} := g{i - 1};" for i in range(1, width)]
    return (
        "decl " + ", ".join(names) + ";\n"
        "main() begin\n" + "\n".join(body) + "\n"
        f"if (g{width - 1}) then\n  target: skip;\nfi\nend\n"
    )


def width_chain_queries(seed: int) -> List[BatchQuery]:
    """Copy-chain programs of growing width, as source text (parsed in the pass)."""
    return _shuffled(
        [BatchQuery(name=f"chain-{width}", program=chain_source(width),
                    target="main:target", algorithm="ef-opt", expected=True)
         for width in CHAIN_WIDTHS],
        seed,
    )


def fig3_queries(seed: int) -> List[BatchQuery]:
    """The unreachable Figure 3 Bluetooth cases on the bounded context-switching engine."""
    return _shuffled(
        [BatchQuery(name=f"{name}-k{switches}", program=make_bluetooth(adders, stoppers),
                    target="error", concurrent=True, context_switches=switches,
                    expected=expected)
         for name, adders, stoppers, switches, expected in BLUETOOTH_CASES],
        seed,
    )


def zipf_corpus() -> List[Tuple[str, str]]:
    """``(name, source)`` of the corpus, hottest rank first.

    The programs and their popularity ranks are the same for every seed
    (generator seeds ``CORPUS_SEED * 1000 + i``, rank ``i``); the seed
    draws the request stream.  With programs or ranks drawn afresh per
    seed, which programs the pool budget evicts changed from seed to seed
    and moved the 95th-percentile latency by a third.
    """
    return [
        (f"zipf-{index}", random_program_source(CORPUS_SEED * 1000 + index))
        for index in range(CORPUS_SIZE)
    ]


def zipf_stream(corpus: List[Tuple[str, str]], requests: int, seed: int) -> List[str]:
    """Program names of an open-loop stream, rank ``r`` with weight ``1/(r+1)^s``.

    Each program is requested its exact share of ``requests`` (largest
    remainders round), and the seed shuffles the order.  Drawn
    independently, the rare programs' counts varied from seed to seed, and
    with them how many requests were cold solves, which set the 95th
    percentile latency.
    """
    names = [name for name, _ in corpus]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(names))]
    shares = [requests * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(names)), key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[:requests - sum(counts)]:
        counts[rank] += 1
    stream = [name for name, count in zip(names, counts) for _ in range(count)]
    random.Random(seed).shuffle(stream)
    return stream


def explicit_verdicts(corpus: List[Tuple[str, str]]) -> Dict[str, bool]:
    """Verdicts from the explicit Bebop and Moped baselines, which must agree.

    These engines share no code with the symbolic fixed-point evaluator
    the daemon runs, so they are an independent oracle for its answers.
    """
    verdicts: Dict[str, bool] = {}
    for name, source in corpus:
        program = parse_program(source, name=name)
        locations = resolve_target(program, CORPUS_TARGET)
        bebop = run_bebop(program, locations).reachable
        moped = run_moped(program, locations).reachable
        if bebop != moped:
            raise RuntimeError(f"{name}: Bebop says {bebop}, Moped says {moped}")
        verdicts[name] = bebop
    return verdicts
