"""Pinned output of ``verify``: the bytes of every row and the exit code,
so that a change to how a battery draws, reduces or judges its trials
cannot move a printed verdict unseen.

Each entry is the ``verify`` arguments, the exit code and the sha256 of
standard output.  They cover ``verify all`` at the five benchmark grid
points with three (--trials, --seed, --tol) settings, and ``verify heat``
(also with a tolerance every defect row fails) and ``verify negdef`` at the
same points, and ``verify contraction`` on one draw whose norm ratio is
below 1, so that the row prints worst=0 only through its floor at 0.  They
were recorded while each battery still decided its own tolerance default,
running worst and verdict.

The row rule is checked apart from the bytes: a row says PASS exactly when
its printed worst is at most its printed tolerance, and ``overall`` says
PASS exactly when every row does.
"""
import hashlib

import pytest

from padic_bessel.cli import main

GOLDEN = [
    ("all --p 2 --n 1 --alpha 2 --trials 12 --seed 3", 1, "b56d79cdd658c7796918ecae200d742627b9e08af1daf988a6a91b4845e66039"),
    ("all --p 2 --n 1 --alpha 2 --trials 1", 0, "abd9e2a454ab5c40c23335a1f1852e56bf49760484ebf89365336e2726aed462"),
    ("all --p 2 --n 1 --alpha 2 --trials 5 --tol 1e-3", 1, "3d329eff6983282acd04427c85859dc9ef0d06d978c1136e49e374bdcfe12cde"),
    ("all --p 3 --n 1 --alpha 3 --trials 12 --seed 3", 1, "b286c3a5d6f49e61e68cbdec98821819f4ebc43c73f6df59c2834708de7d403d"),
    ("all --p 3 --n 1 --alpha 3 --trials 1", 0, "080f1bb257166abdc7653b24113c214270d069f4c2e03724710d7eba8914e241"),
    ("all --p 3 --n 1 --alpha 3 --trials 5 --tol 1e-3", 1, "59242809b38ac90f1b7b72ae25c22becd66ff60f9420531faa5f20ba1dbdd79b"),
    ("all --p 2 --n 2 --alpha 4 --trials 12 --seed 3", 1, "5476edd451e32b7ab4bb6c10f04b67a50c17f7893bbbb864e5f775173e4c61e5"),
    ("all --p 2 --n 2 --alpha 4 --trials 1", 0, "e0c94be713624f44dfe8d94be99b16e03066b708bc9cd1965891cfcd0eb47c3e"),
    ("all --p 2 --n 2 --alpha 4 --trials 5 --tol 1e-3", 1, "f485e88adb99348818f7eae3be00a0ba12e4b0643e0612ea79e300ed5a215f8d"),
    ("all --p 5 --n 1 --alpha 2 --trials 12 --seed 3", 1, "f0e3d8a066d024391a0b4139812b1872d7345303496962df93530284d2a07e41"),
    ("all --p 5 --n 1 --alpha 2 --trials 1", 0, "05816b910cce200cca57ba0508af234f9366a4d0ffee34951dbfda9f6626905b"),
    ("all --p 5 --n 1 --alpha 2 --trials 5 --tol 1e-3", 1, "1fbd53305bda66095538960ce30ad2596a5f154c4b4eb12bf6986c9beef8a293"),
    ("all --p 3 --n 2 --alpha 2.5 --trials 12 --seed 3", 1, "ef662a3daf3052be08f94201dd18c1184e9c55e2f62d7246f5ee11c9079cadf2"),
    ("all --p 3 --n 2 --alpha 2.5 --trials 1", 0, "ac16a0dc1965262fc303c83623eeb7bb5a383b15d7b35d2abaaf6871b9d47299"),
    ("all --p 3 --n 2 --alpha 2.5 --trials 5 --tol 1e-3", 1, "87d92a2d9e01e6f7a512f5d5d0890098c4a0f3c88c73e41e36fd79119bd41ac3"),
    ("heat --p 2 --n 1 --alpha 2", 0, "333180cfdfeeb146e17bfdb8d5eef57723818a5c281ffd60266bc64b378f981f"),
    ("heat --p 2 --n 1 --alpha 2 --tol 1e-20", 1, "2b8b506fdf82c4ad5ddaae5cf806f5b220dc59739d3bb8ecc039c02068fa117f"),
    ("negdef --p 2 --n 1 --alpha 2", 0, "9b09f335683f06431f34a8df614e6d988b632fb7a8c105797adc5154782f7b59"),
    ("heat --p 3 --n 1 --alpha 3", 0, "a2419827c52ef09112d5e6622bf441235b37a300542d7c2b2189e2f608eb2aef"),
    ("heat --p 3 --n 1 --alpha 3 --tol 1e-20", 1, "d7c6c3cd7dc04d587eb74bcf3532fa3cd3150c2b06fe99d2711643f6e0310c01"),
    ("negdef --p 3 --n 1 --alpha 3", 0, "6f5f2b700ddc414ee97bc7107a021b88712f51c218e9db622eb6d42dc88e05ff"),
    ("heat --p 2 --n 2 --alpha 4", 0, "dc005d3ffb2d49f1368926bd3cda87a1b65effc5c55b002b1397b57bb286f905"),
    ("heat --p 2 --n 2 --alpha 4 --tol 1e-20", 1, "79122c863fe23b93fb8c9319d229e5c992904b9916ad3e120eb0e5244155e034"),
    ("negdef --p 2 --n 2 --alpha 4", 0, "266ebb4de9f2009e48c259f9177c0f2adf202b0491971e144797f3cbf8d18444"),
    ("heat --p 5 --n 1 --alpha 2", 0, "8c394053175b27bcd7d5034ca2efbb00219f2d1c293f301bd3bda6d24d103475"),
    ("heat --p 5 --n 1 --alpha 2 --tol 1e-20", 1, "79533cc8ef52e512c9c7435b1421d612f7c1f319e6fc1d61bdbc490f686591a9"),
    ("negdef --p 5 --n 1 --alpha 2", 0, "375574502965ab8c1a6a28a62ae695be519372abd66541f784ced06390f069cb"),
    ("heat --p 3 --n 2 --alpha 2.5", 0, "e0dbf79981078046962ba4e418dabb864760a12bdb7d8da18174e270290db636"),
    ("heat --p 3 --n 2 --alpha 2.5 --tol 1e-20", 1, "018f39e9dcee23c1c97c1bbee76f95ebc790cd3c870eaf479215f47437b003d9"),
    ("negdef --p 3 --n 2 --alpha 2.5", 0, "1bef8eb6b87273d4ab74319279b8861702dd058057c6eb94b3f7d2fe456319cb"),
    ("contraction --p 2 --n 1 --alpha 2 --trials 1 --seed 2", 0, "bcdd674d89e0f70d94bef448481b8ba1faadde2bfc81d84b53b8abd119930998"),
    ("contraction --p 3 --n 1 --alpha 3 --trials 1 --seed 2", 0, "bcdd674d89e0f70d94bef448481b8ba1faadde2bfc81d84b53b8abd119930998"),
    ("contraction --p 2 --n 2 --alpha 4 --trials 1 --seed 2", 0, "bcdd674d89e0f70d94bef448481b8ba1faadde2bfc81d84b53b8abd119930998"),
    ("contraction --p 5 --n 1 --alpha 2 --trials 1 --seed 2", 0, "bcdd674d89e0f70d94bef448481b8ba1faadde2bfc81d84b53b8abd119930998"),
    ("contraction --p 3 --n 2 --alpha 2.5 --trials 1 --seed 2", 0, "bcdd674d89e0f70d94bef448481b8ba1faadde2bfc81d84b53b8abd119930998"),
]

GRID = [("2", "1", "2"), ("3", "1", "3"), ("2", "2", "4"), ("5", "1", "2"), ("3", "2", "2.5")]


def _verify(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[args for args, _, _ in GOLDEN])
def test_verify_output_matches_its_pinned_hash(capsys, args, code, digest):
    got_code, out = _verify(capsys, args.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("tol", [None, "1e-3", "-0.5", "0"])
@pytest.mark.parametrize("p,n,alpha", GRID)
def test_every_row_passes_exactly_when_worst_is_at_most_tol(capsys, p, n, alpha, tol):
    flags = [] if tol is None else ["--tol", tol]
    code, out = _verify(capsys, ["all", "--p", p, "--n", n, "--alpha", alpha, "--trials", "6", "--seed", "11", *flags])
    *rows, overall = out.splitlines()
    verdicts = []
    for row in rows:
        fields = dict(word.split("=", 1) for word in row.split()[:-1])
        verdict = row.split()[-1]
        assert verdict == ("PASS" if float(fields["worst"]) <= float(fields["tol"]) else "FAIL"), row
        verdicts.append(verdict == "PASS")
    assert len(rows) == 14
    assert overall == f"overall: {'PASS' if all(verdicts) else 'FAIL'}"
    assert code == (0 if all(verdicts) else 1)
