"""The files that the `ritzlab` commands write for the tiny cases under
tests/golden match the committed ones, field by field."""

import json
import math

import pytest

from golden.regenerate import CASES, GOLDEN, describe, moved_fields, run_case


def test_golden_cases_cover_every_run_command_at_d1_to_d3_and_the_report_commands():
    assert CASES == sorted([f"{cmd}_d{d}" for cmd in ("decompose", "study", "train")
                            for d in (1, 2, 3)] + ["bounds", "construct-verify"])


@pytest.mark.parametrize("case", CASES)
def test_command_outputs_match_golden(case, tmp_path):
    run_case(case, tmp_path)
    moved = moved_fields(GOLDEN / case, tmp_path)
    assert not moved, ("fields moved (rerun tests/golden/regenerate.py once the move "
                       "is intended):\n" + describe(case, moved))


def test_moved_fields_at_rtol_zero_names_a_one_ulp_move(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for d, x in ((old, 0.1), (new, math.nextafter(0.1, 1.0))):
        d.mkdir()
        (d / "r.json").write_text(json.dumps({"a": x, "b": -0.0 if d is new else 0.0}))
    assert moved_fields(old, new) == []
    assert [key for key, _, _ in moved_fields(old, new, 0.0)] == ["r.json.a", "r.json.b"]
