"""Write records.json: the outputs that have no identity to check against.

Run from the root of a checkout, once, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/freeze.py

Every pooled input of workloads.record_pool is evaluated.  Where the
mathematics gives an identity it is asserted before the value is frozen:
CMSPL values against their expansion into CMPL values, t-module values
against validation and the a versus a^2 annihilator check, relation
reports against their recheck precision and weight support.  CLI records
hold stdout and the exit code.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    lib = wl.Lib()
    shipped = wl.load_shipped()
    records = {}
    for spec in wl.record_pool(lib):
        kind = spec["kind"]
        if kind == "cli":
            out = worker.run_cli_process(spec["argv"])
            if out[1] not in (0, 1):
                raise SystemExit(f"usage error in pooled argv {spec['argv']}")
            value = out
        else:
            out = wl.execute(lib, spec, shipped)
            value = out
            if kind == "cmspl":
                star = dict(spec, kind="star-identity", expect="equal")
                if wl.execute(lib, star, shipped) != "equal":
                    raise SystemExit(f"star expansion fails for {spec}")
            elif kind == "tmodule":
                if out[0] != "validated" or out[2] != "agree":
                    raise SystemExit(f"t-module check fails for {spec}")
                value = out[1]
            elif kind == "relations":
                if not all(len(w) == 1 and wl.residual_ok(line, 60)
                           for line, w in out):
                    raise SystemExit(f"relation report fails for {spec}")
        records.setdefault(kind, {})[wl.record_key(spec)] = value
        print(kind, len(records[kind]), flush=True)
    with open(wl.RECORDS_PATH, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
