"""Self-tests of the benchmark itself.

    python3 benchmarks/selfcheck.py

Each oracle must accept vdk's real answer and reject a planted wrong one
(a count off by one, a table with two range words swapped, a flipped
verdict, an mV table with a dropped cell, and a few more); then one short run of every workload, untraced
and traced, must print exactly the metrics BENCHMARK.json names, each
with its unit.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle as O  # noqa: E402
import run  # noqa: E402
import vdk  # noqa: E402
import workloads as W  # noqa: E402


def expect(label: str, op, right, wrong) -> None:
    if not run.passes(op, right):
        raise SystemExit("FAIL %s: oracle rejects vdk's answer" % label)
    if run.passes(op, wrong):
        raise SystemExit("FAIL %s: oracle accepts a planted wrong answer" % label)
    print("ok   %s" % label)


def swap_two_ranges(text: str) -> str:
    pairs = [p.split("->") for p in text[1:-1].split(",")]
    i, j = 0, len(pairs) - 1
    pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    return "{%s}" % ",".join("->".join(p) for p in pairs)


def check_oracles() -> None:
    rng = Random(7)
    f, _ = vdk.fixture("free2")
    op = W.cogrowth_op(f, 6, 1)
    c = op.fn(*op.args)
    expect("cogrowth count + 1", op, c, c + 1)

    a21 = vdk.Alphabet(2, 1)
    g = W.make_tab(W.random_pairs(rng, 2, 1, 8), 2, 1)
    h = W.make_tab(W.random_pairs(rng, 2, 1, 8), 2, 1)
    op = W.op_compose(g, h)
    r = op.fn(*op.args)
    expect("compose with two range words swapped", op, r,
           vdk.parse_table(a21, swap_two_ranges(vdk.format_table(r))))
    op = W.op_inverse(g)
    r = op.fn(*op.args)
    expect("inverse with two range words swapped", op, r,
           vdk.parse_table(a21, swap_two_ranges(vdk.format_table(r))))

    x = W.make_pt(W.random_point(rng, 2, 1, 5, 3), 2, 1)
    op = W.op_act_point(g, x)
    r = op.fn(*op.args)
    expect("act_point moved by one letter", op, r, vdk.parse_point(a21, "1" + vdk.format_point(r)))

    s = W.make_cl(W.random_words(rng, 2, 1, 6, 5), 2, 1)
    t = W.make_cl(W.random_words(rng, 2, 1, 6, 5), 2, 1)
    op = W.op_clopen2("symmetric_difference", s, t)
    r = op.fn(*op.args)
    expect("clopen xor missing a word", op, r, vdk.parse_clopen(a21, "{%s}" % ",".join(
        vdk.format_word(w) for w in r.words[1:])))

    x, y = W._related_pair(rng, 2, 1, 6, 5, 4, True)
    op = W.op_related(x, y)
    r = op.fn(*op.args)
    expect("related witness off by one", op, r, vdk.TailWitness(r.p + 1, r.q + 1))

    g2 = W._box_table(rng, 2, 3)
    h2 = W._box_table(rng, 2, 3)
    op = W.op_mv_compose(g2, h2)
    r = op.fn(*op.args)
    bad = list(r.pairs)
    bad[0], bad[-1] = (bad[0][0], bad[-1][1]), (bad[-1][0], bad[0][1])
    expect("mv_compose with two range boxes swapped", op, r, vdk.BoxTable(r.m, tuple(bad)))
    expect("mv_compose with a cell dropped", op, r, vdk.BoxTable(r.m, r.pairs[:-1]))

    for as_json in (False, True):
        op = W.op_cli_check((1, 1, 1), 2, as_json)
        code, text = op.fn(*op.args)
        if as_json:
            env = json.loads(text)
            env["result"]["verdict"] = "INCONCLUSIVE"
            flipped = json.dumps(env)
        else:
            flipped = text.replace("verdict: PASS", "verdict: INCONCLUSIVE")
        expect("certificate verdict flipped (json=%s)" % as_json, op, (code, text), (code, flipped))
    op = W.op_cli_check((1,), 2, False)
    code, text = op.fn(*op.args)
    expect("certificate exit code of an INCONCLUSIVE check", op, (code, text), (0, text))

    if O.tree_walks(12) != 195352:
        raise SystemExit("FAIL tree-walk count c_12")
    print("ok   tree-walk oracle c_12 = 195352")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                spec["command"] + ["--workload", w["name"], "--seed", "3", "--seconds", "1",
                                   "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            res = json.loads(out.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                raise SystemExit("FAIL %s trace=%d: metrics %s differ from BENCHMARK.json"
                                 % (w["name"], trace, sorted(set(got) ^ set(want[trace]))))
            if not res["correct"] or res["failed"]:
                raise SystemExit("FAIL %s trace=%d: %d of %d operations failed"
                                 % (w["name"], trace, res["failed"], res["attempted"]))
            print("ok   %s trace=%d: %d metrics with units, %d ops correct"
                  % (w["name"], trace, len(got), res["attempted"]))


def main() -> None:
    check_oracles()
    check_metrics()


if __name__ == "__main__":
    main()
