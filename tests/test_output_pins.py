"""Byte-identity pins of the CLI's closed-form, witness and configuratrix output.

Each batch runs the CLI in-process and hashes a transcript of every call:
the arguments, the exit code, stdout and stderr. The closed-form digests
were taken while each factor was still evaluated as a chain of Fraction
operations, before the integer evaluation over one common denominator; the
witness digest while each two-value pattern was still solved through exact
square roots of binary-quadratic discriminants; the large-n witness digest
while every pattern k = 0..n was still tried in turn; the configuratrix
digest while the value was still the Macaulay resultant of the homogenized
(n+1)-form system, before its reduction to n quadrics. Any change to a printed
byte, an exit code or a refusal message changes a digest. The one text left
out is the interpreter's own int->str message after "answer too large to
print:", whose wording differs between Python versions.
"""
import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction

import pytest

from symres.cli import main
from symres.finsler import Momentum
from symres.symcubic import SymmetricCubic

from test_finsler import PAIR_KINDS, seeded_pair
from test_oracle import _from_normalized, _stratum_cubic, stratum_cubics

PRINT_LIMIT = re.compile(r"(answer too large to print:)[^\n]*")

NEAR_LOCUS_61 = {
    "n": 3,
    "A1": {"start": "-1", "stop": "1", "step": "1/30"},
    "A2": {"start": "-3", "stop": "1", "step": "1/15"},
    "A3": "3",
}


def _axis(start, stop, step):
    return {"start": start, "stop": stop, "step": step}


def small_grids():
    """Grids at n = 3..10: generic, a3 = 0 (the 0**0 lead at n = 3, a zero
    lead beyond), an A1 = 0 row through A2 = 0 with A3 != 0, and one point
    A1 = A2 = 0 (the pure s3 cubic)."""
    grids = []
    for n in range(3, 11):
        grids.append({"n": n, "A1": _axis("-2/3", "2/3", "1/3"),
                      "A2": _axis("-5/2", "1/2", "3/4"), "A3": "7/5"})
        grids.append({"n": n, "A1": _axis("-1", "1", "1/2"),
                      "A2": _axis("-1", "1", "1"), "A3": "0"})
        grids.append({"n": n, "A1": _axis("0", "0", "1"),
                      "A2": _axis("-1", "1", "1/2"), "A3": "-2/3"})
        grids.append({"n": n, "A1": _axis("0", "0", "1"),
                      "A2": _axis("0", "0", "1"), "A3": "5"})
    return grids


def strata_cubics():
    """(n, a1, a2, a3) on every stratum of the closed form at n = 3..12."""
    cubics = []
    for n in range(3, 13):
        cubics += [(n, sc.a1, sc.a2, sc.a3) for sc in stratum_cubics(n).values()]
        cubics += [
            (n, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4)),  # denominators
            (n, 1, -3, 3),                                         # power sums
            (n, 0, 0, 1),                                          # pure s3
        ]
    return cubics


def transcript(tmp_path, calls):
    """sha256 of every call's arguments, exit code, stdout and stderr, and
    the exit codes in order. Each call is (command, its JSON input files'
    payloads, flags). A refusal writes exactly one JSON error line."""
    digest, codes = hashlib.sha256(), []
    for i, (command, payloads, flags) in enumerate(calls):
        paths = [tmp_path / f"in{i}-{j}.json" for j in range(len(payloads))]
        for path, payload in zip(paths, payloads):
            path.write_text(json.dumps(payload), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *map(str, paths), *flags])
        codes.append(code)
        if code == 4:
            (line,) = err.getvalue().splitlines()
            assert "error" in json.loads(line)
        inputs = " ".join(map(json.dumps, payloads))
        digest.update(f"{command} {inputs} {flags}\n{code}\n".encode())
        digest.update(out.getvalue().encode() + b"\0"
                      + PRINT_LIMIT.sub(r"\1", err.getvalue()).encode() + b"\0")
    return digest.hexdigest(), codes


def test_sweep_across_the_vanishing_locus_is_pinned(tmp_path):
    digest, codes = transcript(tmp_path, [("sweep", [NEAR_LOCUS_61], [])])
    assert codes == [0]
    assert digest == "de2f674d34fded3f7921ca62adafc2fb7bcdec4cb6fbf51eb49e8ce6fe0d5ab2"
    # --out writes the same bytes as stdout
    out_path = tmp_path / "lines.jsonl"
    assert main(["sweep", str(tmp_path / "in0-0.json"), "--out", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 61 * 61
    assert sum('"vanishes": true' in line for line in text.splitlines()) == 22
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1cfbfa2e676294ffab454c39639c5020af3377dc8ba187a0006d554d5d9ab7b0")


def test_small_sweeps_are_pinned(tmp_path):
    digest, codes = transcript(tmp_path, [("sweep", [g], []) for g in small_grids()])
    # the generic n = 10 grid is refused: its values pass the int->str limit
    assert codes == [0] * 28 + [4, 0, 0, 0]
    assert digest == "2b9bc587f1a56701f7b205016ebe8847b96b74c8aba73f92db1be0abcd4dbfad"


# 3 where the resultant vanishes; 4 from n = 10 where a value passes the
# int->str limit. One row per n: generic, d = 0, b1 = 0, a1 = 0, a3 = 0,
# denominators, power sums, pure s3.
CLOSED_EXIT_CODES = [
    0, 0, 3, 0, 3, 0, 0, 3,  # n = 3
    0, 3, 3, 0, 3, 0, 0, 3,
    0, 0, 3, 0, 3, 0, 0, 3,
    0, 3, 3, 0, 3, 0, 0, 3,
    0, 0, 3, 0, 3, 0, 0, 3,
    0, 3, 3, 0, 3, 0, 0, 3,
    0, 0, 3, 0, 3, 0, 0, 3,  # n = 9
    3, 3, 3, 4, 3, 4, 0, 3,
    4, 4, 3, 4, 3, 4, 4, 3,
    4, 3, 3, 4, 3, 4, 4, 3,  # n = 12
]
CLOSED_DIGESTS = [
    "3fb7ffdde47842b70da2faf5ef63d25817bb543ea11385f487dc2c6237753c98",
    "de02ebb6cb263589c83dd5aff9744e50d48013da3bfb7e560764e316ba0a542b",
]


@pytest.mark.parametrize("flags", [[], ["--paper-normalization"]])
def test_closed_reports_on_the_strata_are_pinned(tmp_path, flags):
    calls = [("closed", [{"n": n, "A1": str(a1), "A2": str(a2), "A3": str(a3)}], flags)
             for n, a1, a2, a3 in strata_cubics()]
    digest, codes = transcript(tmp_path, calls)
    assert codes == CLOSED_EXIT_CODES
    assert digest == CLOSED_DIGESTS[len(flags)]


def witness_cubics():
    """strata_cubics(), three seeded cubics per n = 3..12 on each witness
    stratum of test_oracle (d0-balanced at even n only), and two large n:
    power sums without a witness and a pure s1^3 with one."""
    cubics = list(strata_cubics())
    for stratum in ["d0-balanced", "c0", "a3-zero", "factor-k"]:
        rng = random.Random(f"witness-pin-{stratum}")
        for n in range(3, 13):
            if stratum == "d0-balanced" and n % 2:
                continue
            for _ in range(3):
                sc = _stratum_cubic(stratum, rng, n)
                cubics.append((n, sc.a1, sc.a2, sc.a3))
    return cubics + [(200, 1, -3, 3), (201, 1, 0, 0)]


def test_witness_reports_are_pinned(tmp_path):
    calls = [("witness", [{"n": n, "A1": str(a1), "A2": str(a2), "A3": str(a3)}], [])
             for n, a1, a2, a3 in witness_cubics()]
    digest, codes = transcript(tmp_path, calls)
    assert codes == [0] * len(calls)
    assert digest == "98c6e22aa56a3450bcd2fa60d00ad1c683e23ba5effc5e296869cfe0a1eb2630"


def large_witness_cubics():
    """Cubics with planted roots at n = 50, 101, 200 and 1000, where the
    search may not loop over n: four with Y_k = 0 at a random k, Y_(n/2) = 0
    at even n, the square families a1*s1^3 and, at even n, a3 = (a2 + a3)*n/2
    with every slot vanishing (d0-balanced) or not (stratum_cubics' d0), and
    the rest of stratum_cubics(): the all-ones root (b1 = 0), the a3 = 0
    fallback and cubics without a witness."""
    cubics = []
    for n in (50, 101, 200, 1000):
        rng = random.Random(f"witness-pin-large-{n}")
        planted = [_stratum_cubic("factor-k", rng, n) for _ in range(4)]
        planted += [SymmetricCubic(n, Fraction(-2, 3), 0, 0), *stratum_cubics(n).values()]
        if n % 2 == 0:
            b1 = Fraction(rng.randint(1, 9), 7)
            planted += [_from_normalized(n, b1, Fraction(0), Fraction(-3, 2)),
                        _stratum_cubic("d0-balanced", rng, n)]
        cubics += [(n, sc.a1, sc.a2, sc.a3) for sc in planted]
    return cubics


def test_large_n_witness_reports_are_pinned(tmp_path):
    calls = [("witness", [{"n": n, "A1": str(a1), "A2": str(a2), "A3": str(a3)}], [])
             for n, a1, a2, a3 in large_witness_cubics()]
    digest, codes = transcript(tmp_path, calls)
    assert codes == [0] * len(calls)
    assert digest == "a97f431cfaf86cb03d876b9815e99a4fab46a9a5a5053403fbdb40ac5bd7f4fc"


def configuratrix_calls():
    """Four seeded n = 3 pairs of every kind of test_finsler.seeded_pair,
    the zero momentum on two metrics, then an n = 4 pair (refused by the
    size rule) and a momentum of the wrong length."""
    pairs = [seeded_pair(kind, i) for kind in PAIR_KINDS for i in range(4)]
    pairs += [(m, Momentum.of([0, 0, 0])) for m, _ in pairs[:2]]
    calls = [[{"n": m.s.n, "A1": str(m.s.a1), "A2": str(m.s.a2), "A3": str(m.s.a3)},
              {"y": [str(v) for v in y.y]}] for m, y in pairs]
    calls += [[dict(calls[0][0], n=4), {"y": ["1", "2", "3", "4"]}],
              [calls[0][0], {"y": ["1", "2"]}]]
    return [("configuratrix", payloads, []) for payloads in calls]


def test_configuratrix_reports_are_pinned(tmp_path):
    digest, codes = transcript(tmp_path, configuratrix_calls())
    assert codes == [0] * 26 + [4, 2]
    assert digest == "62cce6bd730a6277c86e2f3444cd727efa0577edd2a2c7270f64dc9e56b5f93f"
