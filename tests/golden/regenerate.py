"""Golden outputs of the `ritzlab` commands.

Each directory here holds one case next to every file that its command writes
for it. A run-command case (`train`, `study`, `decompose`, named by the
directory's prefix) holds a tiny config, config.yaml. A case of a command that
takes no config file (`construct-verify`, `bounds`) holds args.txt instead: the
command and its options, whose JSON report is written to <command>.json.
tests/test_golden.py reruns every case and compares the outputs field by
field: strings, ints and bools must match exactly, floats within rtol 1e-12.

    PYTHONPATH=src python tests/golden/regenerate.py

reruns every config, rewrites the output files and prints each field that
moved, as `path: old -> new`, then, under a heading of their own, each field
whose bits moved within rtol 1e-12.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

from ritzlab.cli import main

GOLDEN = Path(__file__).resolve().parent
_INPUTS = ("config.yaml", "args.txt")
CASES = sorted(p.parent.name for name in _INPUTS for p in GOLDEN.glob(f"*/{name}"))
RTOL = 1e-12
_ABSENT = "<absent>"
_FILE = "<file>"


def run_case(case: str, outdir) -> None:
    """Run the case's command on its config or args.txt, writing into outdir."""
    args_file = GOLDEN / case / "args.txt"
    if args_file.exists():
        args = args_file.read_text().split()
        args += ["--out", str(Path(outdir) / f"{args[0]}.json")]
    else:
        args = [case.split("_")[0], str(GOLDEN / case / "config.yaml"), "--out", str(outdir)]
    if main(args) != 0:
        raise RuntimeError(f"ritzlab {args[0]} failed on golden case {case}")


def _token(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(value, path: str, out: dict) -> None:
    if isinstance(value, dict) and value:
        for key, v in value.items():
            _leaves(v, f"{path}.{key}", out)
    elif isinstance(value, list) and value:
        for k, v in enumerate(value):
            _leaves(v, f"{path}[{k}]", out)
    else:
        out[path] = value


def _fields(path: Path) -> dict:
    """A written file as {field path: value}: JSON by its keys and indices,
    the CSV and network text files by line and comma- or space-split column."""
    out: dict = {}
    if path.suffix == ".json":
        _leaves(json.loads(path.read_text()), path.name, out)
        return out
    sep = "," if path.suffix == ".csv" else None
    for row, line in enumerate(path.read_text().splitlines(), 1):
        for col, text in enumerate(line.split(sep), 1):
            out[f"{path.name}:{row}:{col}"] = _token(text)
    return out


def _same(old, new, rtol: float) -> bool:
    """Equal, floats within rtol; at rtol 0 floats must be bit-identical (a float's
    repr round-trips its bits, and reads 'nan' for every NaN)."""
    if type(old) is not type(new):
        return False
    if isinstance(old, float):
        if not rtol:
            return repr(old) == repr(new)
        return math.isclose(old, new, rel_tol=rtol, abs_tol=0.0) or (
            math.isnan(old) and math.isnan(new))
    return old == new


def moved_fields(old_dir, new_dir, rtol: float = RTOL) -> list:
    """(path, old, new) for every output field that differs between the two
    directories, floats by more than rtol, or that only one of them holds, and
    (file name, old, new) for a file that only one of them holds; config.yaml
    and args.txt are inputs."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.iterdir()
                    if p.is_file()} - set(_INPUTS))
    moved = []
    for name in names:
        if not ((old_dir / name).exists() and (new_dir / name).exists()):
            moved.append((name, *((_FILE if (d / name).exists() else _ABSENT)
                                  for d in (old_dir, new_dir))))
            continue
        old, new = _fields(old_dir / name), _fields(new_dir / name)
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key, _ABSENT), new.get(key, _ABSENT)
            if a is _ABSENT or b is _ABSENT or not _same(a, b, rtol):
                moved.append((key, a, b))
    return moved


def describe(case: str, moved: list) -> str:
    return "\n".join(f"{case}/{key}: {a!r} -> {b!r}" for key, a, b in moved)


def regenerate() -> tuple:
    """Rerun every case, rewrite its golden outputs, and return the lines of
    describe() for every field that moved, and for every other field whose
    bits moved."""
    lines, bit_lines = [], []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            run_case(case, tmp)
            moved = moved_fields(GOLDEN / case, tmp)
            keys = {key for key, _, _ in moved}
            bits = [m for m in moved_fields(GOLDEN / case, tmp, 0.0) if m[0] not in keys]
            for old in (GOLDEN / case).iterdir():
                if old.name not in _INPUTS:
                    old.unlink()
            for new in Path(tmp).iterdir():
                shutil.copyfile(new, GOLDEN / case / new.name)
        lines += [describe(case, moved)] if moved else []
        bit_lines += [describe(case, bits)] if bits else []
    return lines, bit_lines


if __name__ == "__main__":
    moved, bits = regenerate()
    print("\n".join(moved) if moved else "no field moved")
    print(f"within rtol {RTOL:g}, bits moved:")
    print("\n".join(bits) if bits else "no field")
