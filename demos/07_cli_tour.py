"""Driving the batch front-end from Python.

Every capability is reachable through INI configs and the `pconvex`
console script; this script runs three shipped configs into a temporary
directory, prints their reports, and demonstrates byte-level determinism
of the artifacts.
"""

import json
import pathlib
import tempfile

from pconvex import cli

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run(name, out):
    code = cli.main(["run", str(CONFIGS / name), "--out", str(out)])
    lines = (pathlib.Path(out) / "report.jsonl").read_text().splitlines()
    return code, lines


def main():
    with tempfile.TemporaryDirectory(prefix="pconvex-demo-") as name:
        tmp = pathlib.Path(name)

        print("== available builtin constructors ==")
        print(cli.list_builtins())

        print("== kmh ladder config ==")
        code, lines = run("kmh_ladder_2d.ini", tmp / "kmh")
        print(f"   exit {code}; artifacts: report.jsonl, series.csv, plot.svg")
        for line in lines[1:]:
            rec = json.loads(line)
            print(f"   h={rec['h']:<8g} residual {rec['residual']:.3e} "
                  f"pass={rec['pass']}")

        print("\n== a failing check is a report, not a crash ==")
        code, lines = run("check_psh_indefinite.ini", tmp / "fail")
        rec = json.loads(lines[1])
        print(f"   exit {code}; min 2-trace {rec['min_trace']} at "
              f"sample {rec['worst_x']}")

        print("\n== determinism ==")
        _, first = run("berndtsson_diameter.ini", tmp / "d1")
        _, second = run("berndtsson_diameter.ini", tmp / "d2")
        same = first[1:] == second[1:]
        print(f"   two runs, reports identical modulo the timestamp header: "
              f"{same}")


if __name__ == "__main__":
    main()
