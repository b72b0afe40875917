"""Line audit: fail on an executable line of src/shearwater that no test runs.

    python .github/line_audit.py run LINES pytest ...  # python -m pytest ..., adding to LINES
    python .github/line_audit.py check LINES           # exit 1 naming each line not run or ALLOWED

``run`` sees the lines its own process runs, not a test's subprocesses. A line
is executable when its file's compiled code holds an instruction on it.
"""

import os
import runpy
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "shearwater"
SUBSET = "FeatureMatrix.subset: only bench/tracer.py holds it, wrapping it by name"
ALLOWED = {  # (file, source text): why no test runs it in the pytest process
    ("cli.py", "sys.exit(main())"): "runs as python -m shearwater.cli, in test subprocesses",
    ("trajdata.py", "raise"): "a column that fails to convert has a cell that fails to parse",
    **{("datasets.py", text): SUBSET for text in [
        "idx = np.flatnonzero(mask)", "return FeatureMatrix(", "columns=list(self.columns),",
        "bird_ids=[self.bird_ids[i] for i in idx],", "values=self.values[idx],",
        "labels=None if self.labels is None else self.labels[idx],"]},
}


def run(lines, module, *args):
    ran, ours = set(), f"{SRC}{os.sep}"

    def line(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):  # only the frames of src/shearwater trace their lines
        return line if frame.f_code.co_filename.startswith(ours) else None

    sys.argv, sys.path[0] = [module, *args], os.getcwd()  # as python -m sets them
    sys.settrace(call)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:  # pytest ends in SystemExit
        sys.settrace(None)
        with open(lines, "a", encoding="utf-8") as out:
            out.writelines(f"{Path(name).name}:{number}\n" for name, number in ran)


def check(lines):
    ran, unrun = set(Path(lines).read_text(encoding="utf-8").split()), []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        codes, numbers, text = [compile(source, str(path), "exec")], set(), source.splitlines()
        while codes:
            code = codes.pop()
            numbers.update(number for *_, number in code.co_lines() if number)
            codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
        unrun += [f"{path.name}:{n}: {text[n - 1].strip()}" for n in sorted(numbers)
                  if f"{path.name}:{n}" not in ran
                  and (path.name, text[n - 1].strip()) not in ALLOWED]
    print("\n".join(unrun) or f"every executable line of {SRC} ran, or ALLOWED names it")
    sys.exit(1 if unrun else 0)


if __name__ == "__main__":
    {"run": run, "check": check}[sys.argv[1]](*sys.argv[2:])
