"""The byte-identity referee on the fixtures: `tools/cli_sweep.py` must print
exactly the committed lines.

Each line hashes one CLI case's exit code, stdout, stderr and written file,
so any change to what a command prints or writes on a fixture shows here.
When an output change is intended, regenerate the file with

    PYTHONPATH=src python tools/cli_sweep.py . butterfly butterfly_gf2 \\
        parallel2_gf2 parallel3_gf2 parallel3_gf5 > tests/golden/cli_sweep_fixtures.txt

and list the changed lines in CHANGES.md.
"""

from conftest import ROOT

GOLDEN = ROOT / "tests" / "golden" / "cli_sweep_fixtures.txt"


def test_cli_sweep_on_the_fixtures_matches_the_golden_lines(fixture_sweep):
    done, _ = fixture_sweep
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == GOLDEN.read_text(encoding="utf-8").splitlines()
