"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every command of every configuration once and stores its exit code,
verdicts and key numbers under perfbench/refs/.  Run it only on a commit
whose outputs are known to be right: a run on changed code would make the
output check compare the program with itself.
"""

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import singbern.cli  # noqa: E402

from workloads import REFS, WORKLOADS, extract, ref_path  # noqa: E402


def main(names) -> int:
    REFS.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        for cfg in WORKLOADS[name].configs:
            commands = []
            for argv in cfg.commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = singbern.cli.main(list(argv))
                commands.append({"argv": list(argv), "exit": code, **extract(argv, out.getvalue())})
            doc = {"workload": name, "config": cfg.name, "commands": commands}
            path = ref_path(name, cfg.name)
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"{path.name}: exits {[c['exit'] for c in commands]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
