"""The recorded runs of the `realdp` CLI in cli_golden.json, and their replayer.

Each case holds an argv, the exit code and stdout of the run, and its stderr
where it records one.  A case with `documents` maps placeholder arguments
(DOCUMENT, CYCLES, CENTER) to JSON documents; a replay writes each document
to a file and passes its path in place of the placeholder.  A new case is
recorded by running the parent commit on its argv, so the store pins what the
code printed before the change.

The tier-1 tests replay every case through `realdp.cli.main` in process.  Run
as a script, from outside the checkout after `pip install .`,

    python tests/golden.py

replays every case through the installed `realdp` console script and exits
non-zero unless all of these hold: each case gives its recorded exit code
and stdout byte for byte, and its stderr where it records one; no case runs
past 60 s; a case that exits 2 does so within 5 s; at least one case has
documents; and `import realdp.cli` loads neither `dataclasses` nor `inspect`,
which would double the cold start of every command.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import time

STORE = pathlib.Path(__file__).with_name("cli_golden.json")


def cases(*commands):
    """The recorded cases, or those whose argv starts with one of `commands`."""
    stored = json.loads(STORE.read_text(encoding="utf-8"))
    return [c for c in stored if not commands or c["argv"][0] in commands]


def replay(case, directory, run):
    """What `run` gives on the case's argv beside what the store records:
    exit code and stdout, and stderr where the case records one.  `run`
    takes the argv, each document written to a file in `directory` in place
    of its placeholder, and returns (exit code, stdout, stderr)."""
    paths = {}
    for name, doc in case.get("documents", {}).items():
        paths[name] = pathlib.Path(directory, f"{name.lower()}.json")
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    got = run([str(paths[arg]) if arg in paths else arg for arg in case["argv"]])
    expected = (case["exit"], case["stdout"]) + ((case["stderr"],) if "stderr" in case else ())
    return got[:len(expected)], expected


def _installed(argv):
    run = subprocess.run(["realdp", *argv], capture_output=True, timeout=60)
    return run.returncode, run.stdout.decode("utf-8", "surrogateescape"), run.stderr.decode("utf-8", "surrogateescape")


def main():
    probe = "import sys, realdp.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.strip()
    stored = cases()
    wrong = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in stored:
            start = time.perf_counter()
            try:
                got, expected = replay(case, tmp, _installed)
            except subprocess.TimeoutExpired:
                wrong.append(["timed out after 60 s:", *case["argv"]])
                continue
            elapsed = time.perf_counter() - start
            if got != expected:
                wrong.append(case["argv"])
            elif case["exit"] == 2 and elapsed > 5:
                wrong.append([f"exit 2 after {elapsed:.1f} s, over 5 s:", *case["argv"]])
    documents = sum("documents" in case for case in stored)
    print(f"{len(stored) - len(wrong)} of {len(stored)} golden cases match, {documents} with documents", *wrong, sep="\n")
    if loaded != "[]":
        print(f"installed realdp.cli imports {loaded}")
    return 1 if wrong or not documents or loaded != "[]" else 0


if __name__ == "__main__":
    sys.exit(main())
