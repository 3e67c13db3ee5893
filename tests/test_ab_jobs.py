"""`tools/ab_jobs.py` on this checkout against itself, on the small job set."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("rounds", [1, 3])
def test_group_rows_give_the_spread_and_the_rounds_won(rounds):
    argv = [ROOT, ROOT, "--workload", "point", "--tiny", "--rounds", str(rounds)]
    proc = subprocess.run(
        [sys.executable, ROOT / "tools" / "ab_jobs.py", *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = proc.stdout
    groups = out[out.index("\ngroup ") + 1 :].splitlines()
    assert groups[0].split() == ["group", "before", "after", "change", "IQR", "won"]
    assert groups[-1].startswith("all (")
    for line in groups[1:]:
        iqr, won = line.split()[-2:]
        assert re.fullmatch(r"\d+\.\d%", iqr), line
        assert re.fullmatch(rf"\d+/{rounds}", won), line
        if rounds == 1:
            assert iqr == "0.0%"


def test_main_runs_twice_in_one_process(capsys, monkeypatch):
    # Each call loads both checkouts afresh under the same module names.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds bench/
    spec = importlib.util.spec_from_file_location("ab_jobs", ROOT / "tools" / "ab_jobs.py")
    ab_jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_jobs)
    argv = [str(ROOT), str(ROOT), "--workload", "point", "--tiny", "--rounds", "1"]
    for _ in range(2):
        assert ab_jobs.main(argv) == 0
        assert "\nall (" in capsys.readouterr().out
