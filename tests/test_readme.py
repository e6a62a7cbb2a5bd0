"""README's commented examples state values; each line is held here verbatim
and its value checked in process."""

from pathlib import Path

from kfiblike import cli

REPO_ROOT = Path(__file__).resolve().parents[1]
EXPECTED = REPO_ROOT / "perfbench" / "expected"

QUICK_START_IMPORT = """\
from kfiblike import (
    K, TransformKind, modified_k_fib, terms, transform_direct,
    transform_recurrence, binet_closed, gf_expand, derived_gf,
    binomial_diff_identity, run_audit,
)
"""

# each commented line of the library quick start, with the value it states
QUICK_START = {
    "terms(modified_k_fib(2), 6)                      # [2, 2, 6, 14, 34, 82]":
        [2, 2, 6, 14, 34, 82],
    "transform_direct(TransformKind.FALLING_K, 3, 2)  # 38, straight from the definition": 38,
    "terms(transform_recurrence(TransformKind.FALLING_K, 3), 3)  # same via recurrence":
        [2, 8, 38],
    "binet_closed(transform_recurrence(TransformKind.BINOMIAL, 2), 5)  # 464, exact": 464,
    "str(terms(modified_k_fib(K), 6)[5])              # '2k^4+2k^3+6k^2+4k+2'":
        "2k^4+2k^3+6k^2+4k+2",
    "terms(modified_k_fib(K), 6)[5].evaluate(2)       # 82, the symbolic term at k = 2": 82,
    "gf_expand(derived_gf(TransformKind.RISING_K, 2), 4)  # [2, 6, 34, 198]": [2, 6, 34, 198],
    "binomial_diff_identity(2, 5)                     # (1120, 1120), each side on its own":
        (1120, 1120),
}


_KFIB_BFILE = "".join(f"{n} {v}\n" for n, v in enumerate([0, 1, 1, 2, 3, 5, 8, 13]))
_M2 = "2,2,6,14,34,82,198,478,1154,2786\n"


def _bench(out):
    return (out.startswith("benchmark: binomial transform, k=2\n")
            and out.endswith("values agree across all strategies that ran\n"))


# each commented line of the CLI block, with its stdout (or a check of it)
# and its stderr
CLI_BLOCK = {
    "kfiblike gen modified --k 2 --count 10            # 2,2,6,14,34,82,...": (_M2, ""),
    'kfiblike gen kfib --k 1 --count 8 --format bfile  # "n value" lines from n=0':
        (_KFIB_BFILE, ""),
    "kfiblike gen modified --k 2 --count 10 --fast     # each term by Lucas doubling (cross-check)":
        (_M2, ""),
    "kfiblike transform falling --k 4 --count 6        # 2,10,58,386,2834,22042":
        ("2,10,58,386,2834,22042\n", ""),
    "kfiblike transform kbinomial --k 2 --count 3 --verify   # cross-checks both routes":
        ("2,8,48\n", "verify: direct sum and closed recurrence agree on 3 terms\n"),
    "kfiblike gf rising --symbolic                     # prints the GF in k and x":
        ("(2 - (2k^2-2k+2)x) / (1 - (k^2+2)x + x^2)\n", ""),
    "kfiblike gf binomial --k 2 --count 6              # GF plus series coefficients":
        ("(2 - 4x) / (1 - 4x + 2x^2)\n2,4,12,40,136,464\n", ""),
    "kfiblike binet binomial --k 2 --n 5 --exact       # 464": ("464\n", ""),
    "kfiblike binet rising --k 2 --n 5                 # 6726.0 (double precision)":
        ("6726.0\n", ""),
    "kfiblike audit                                    # full claim audit, text report":
        ((EXPECTED / "audit_default.txt").read_text(), ""),
    "kfiblike audit --format jsonl                     # one JSON record per claim":
        ((EXPECTED / "audit_default.jsonl").read_text(), ""),
    "kfiblike bench --k 2 --n 100000                   # strategy timing comparison":
        (_bench, ""),
}


def test_readme_examples_hold_their_commented_values(capsys):
    readme = (REPO_ROOT / "README.md").read_text()
    assert QUICK_START_IMPORT in readme
    names = {}
    exec(QUICK_START_IMPORT, names)
    for line, value in QUICK_START.items():
        assert line in readme, line
        assert eval(line.partition("#")[0], names) == value, line
    line = "report = run_audit()        # 26 claims, deterministic report"
    assert line in readme
    exec(line, names)
    assert len(names["report"].results) == 26
    assert names["report"].to_text() == names["run_audit"]().to_text()
    for line, (out, err) in CLI_BLOCK.items():
        assert line in readme, line
        argv = line.partition("#")[0].split()
        assert argv[0] == "kfiblike"
        code = cli.main(argv[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, err), line
        assert out(captured.out) if callable(out) else captured.out == out, line
