"""Self-test of the benchmark's output checks.

Usage (from the repository root)::

    python3 perfbench/self_check.py

Runs one untraced round of every workload with seed 0, then, for every
operation, copies its outputs, corrupts one value the matching check in
``checks.py`` inspects, and confirms that the check accepts the original
and rejects the copy.  Exits 1 if any check lets a corruption through.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import run


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_csv(path: Path, column: str, row: int, scale: float) -> None:
    lines = path.read_text().splitlines()
    comment = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    j = rows[0].index(column)
    rows[row + 1][j] = repr(float(rows[row + 1][j]) * scale)
    path.write_text("\n".join(comment + [",".join(r) for r in rows]) + "\n")


def _check(name: str):
    def get(rep):
        return next(c for c in rep["checks"] if c["name"] == name)
    return get


def _fail_first_check(rep):
    rep["checks"][0]["passed"] = False


def _drop_last_check(rep):
    rep["checks"].pop()


# operation label -> (what is corrupted, function of the output directory)
CORRUPT = {
    "verify.coincidence": ("first check marked failed",
                           lambda d: _edit_json(d / "report.json", _fail_first_check)),
    "verify.smoothness-d2": ("first check marked failed",
                             lambda d: _edit_json(d / "report.json", _fail_first_check)),
    "verify.smoothness-d3": ("report config changed",
                             lambda d: _edit_json(d / "report.json",
                                                  lambda r: r["config"].update(d=4))),
    "verify.symmetry": ("report seed changed",
                        lambda d: _edit_json(d / "report.json",
                                             lambda r: r.update(seed=r["seed"] + 1))),
    "verify.assumptions": ("C_hat halved",
                           lambda d: _edit_json(d / "report.json", lambda r: _check(
                               "cover-constant")(r).update(
                                   measured=_check("cover-constant")(r)["measured"] / 2))),
    "verify.tube-cover": ("half-delta check dropped",
                          lambda d: _edit_json(d / "report.json", _drop_last_check)),
    "verify.gronwall": ("last pair dropped",
                        lambda d: _edit_json(d / "report.json", _drop_last_check)),
    "verify.spiral": ("horizon off by 1e-9",
                      lambda d: _edit_json(d / "report.json", lambda r: _check("horizon")(
                          r).update(measured=_check("horizon")(r)["measured"] + 1e-9))),
    "construct.stubble-det": ("one f1 value scaled by 1 + 1e-7",
                              lambda d: _edit_csv(d / "field_grid.csv", "f1", 200, 1 + 1e-7)),
    "rates": ("one stubble-onlyn value scaled by 1 + 1e-10",
              lambda d: _edit_csv(d / "rates.csv", "stubble-onlyn", 123, 1 + 1e-10)),
    "experiment": ("exact_error off by 1e-9",
                   lambda d: _edit_json(d / "experiment.json", lambda r: r.update(
                       exact_error=r["exact_error"] + 1e-9))),
    "lib.master_pipeline": ("KL at r_n of the stubble instance set to 0.6",
                            lambda d: _edit_json(d / "master.json", lambda r: r[
                                "instances"][0].update(kl_at_r_n=0.6))),
}


def main() -> int:
    bad = 0
    for workload in run.WORKLOADS:
        runner = run.Runner(workload, 0)
        runner.round(traced=False)
        if runner.failed:
            print(f"{workload}: {runner.failed} operations failed before corruption")
            bad += 1
        for op in runner.ops:
            out = runner.work / op.label
            copy = runner.work / f"{op.label}.corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            what, corrupt = CORRUPT[op.label]
            corrupt(copy)
            before = op.check(str(out), op.cfg, op.seed)
            after = op.check(str(copy), op.cfg, op.seed)
            ok = not before and bool(after)
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {op.label}: {what} -> "
                  f"{after[0] if after else 'accepted'}")
    print("self-check passed" if not bad else f"self-check: {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
