"""Benchmark of the shearwater batch pipeline, run through its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is used from ``src/`` as is;
nothing is installed. Each command is its own ``python3 -m shearwater.cli``
process with ``--jobs 1``, started only after the previous one has exited
(a closed loop of one client). A run:

1. generates the workload's corpora from ``--seed`` three times and reports
   the median as ``setup_s``;
2. with ``--trace 0``, runs the workload's command chain in a fresh output
   directory, again while another pass still fits in ``--seconds``,
   checks every output, and reports the median of each end-to-end metric;
3. with ``--trace 1``, runs the chain with each command first untraced and
   then under ``bench/tracer.py``, again while another pass still fits in
   ``--seconds``, and reports the per-layer metrics of the last pass.

The last line of standard output is the result object; the line before it
holds the report fields (input sizes, environment, output hashes, stage
times). Both are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from tracer import SpanStats, merge  # noqa: E402  (bench/ is the script's directory)
from workloads import BASE_SEED, MODES, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s
STARTUP_REPEATS = 3
CHAIN = ["synth", "extract", "folds", "cv", "train", "predict", "ensemble", "evaluate"]
# learners and tree backends that some workload runs
LEARNERS = ["lgb_rf", "sk_rf", "sk_et", "svc"]
TREE_BACKENDS = ["exact", "hist", "uniform"]
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    # one thread per process, as --jobs 1 promises
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Runner:
    """Starts one command at a time in the run directory and counts failures."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def run(self, argv: list[str]) -> tuple[bool, float, float, str]:
        """(exit code was 0, wall seconds, peak RSS in MB, stdout)."""
        self.attempted += 1
        out_path = self.run_dir / "stdout.txt"
        err_path = self.run_dir / "stderr.txt"
        env = {**os.environ, **CHILD_ENV}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no command running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        if proc.returncode != 0:
            tail = err_path.read_text().strip().splitlines()[-1:] or ["(no stderr)"]
            self.fail(f"{' '.join(argv[-4:])}: exit {proc.returncode}: {tail[0]}")
        return proc.returncode == 0, wall, usage.ru_maxrss / 1024.0, stdout

    def cli(self, args: list[str], spans: Path | None = None):
        if spans is None:
            return self.run([sys.executable, "-m", "shearwater.cli", *args])
        return self.run([sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans),
                         "--", *args])


def command_args(cmd: str) -> list[str]:
    if cmd == "evaluate":
        return ["evaluate", "--predictions", "out/ensemble.csv", "--truth", "data/test_labels.csv"]
    jobs = ["--jobs", "1"] if cmd in ("cv", "train") else []
    return [cmd, "--config", "cfg.json", *jobs]


SYNTH_ARGS = [["synth", "--role", "train", "--config", "cfg.json"],
              ["synth", "--role", "test", "--config", "cfg_test.json"]]


def setup(runner: Runner, repeats: int, spans_dir: Path | None = None):
    """Generate the corpora ``repeats`` times into a fresh data directory;
    returns the median wall time of one set-up."""
    walls = []
    for _ in range(repeats):
        shutil.rmtree(runner.run_dir / "data", ignore_errors=True)
        wall = 0.0
        for i, args in enumerate(SYNTH_ARGS):
            spans = spans_dir / f"synth{i}.json" if spans_dir else None
            ok, seconds, _, _ = runner.cli(args, spans)
            if not ok:
                return None
            wall += seconds
        walls.append(wall)
    return statistics.median(walls)


def run_chain(runner: Runner, workload: Workload):
    """One pass of the command chain in a fresh output directory.

    Returns per-command wall seconds, the peak RSS over the commands and the
    stdout of ``evaluate``, or None when a command failed.
    """
    shutil.rmtree(runner.run_dir / "out", ignore_errors=True)
    walls, peak_mb, stdout = {}, 0.0, ""
    for cmd in workload.commands:
        ok, walls[cmd], rss_mb, stdout = runner.cli(command_args(cmd))
        if not ok:
            return None
        peak_mb = max(peak_mb, rss_mb)
    return walls, peak_mb, stdout


# --- output checks -----------------------------------------------------------

def read_csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]


def finite_unit(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_cv(runner: Runner, workload: Workload) -> dict | None:
    """cv_summary.csv has settings x seeds rows plus the ensemble row, and
    every F1 is a finite number in [0, 1]. Returns the F1 values."""
    out = runner.run_dir / "out"
    rows = read_csv_rows(out / "cv_summary.csv")
    expected = {f"{m}_{k}#s{BASE_SEED + r}" for m in MODES for k in workload.learners
                for r in range(workload.n_seeds)} | {"ensemble"}
    names = [row[0] for row in rows]
    if len(names) != len(expected) or set(names) != expected:
        runner.fail(f"cv_summary.csv rows {len(names)} != {len(expected)} expected")
        return None
    bad = [row[0] for row in rows if not finite_unit(row[1])]
    bad += [row[0] for row in read_csv_rows(out / "cv_report.csv") if not finite_unit(row[2])]
    if bad:
        runner.fail(f"non-finite or out-of-range F1 for {sorted(set(bad))[:3]}")
        return None
    f1 = {row[0]: float(row[1]) for row in rows}
    ensemble = f1.pop("ensemble")
    return {"ensemble_cv_f1": ensemble, "median_setting_cv_f1": statistics.median(f1.values())}


def check_downstream(runner: Runner, workload: Workload, evaluate_stdout: str) -> float | None:
    """Exactly settings x seeds prediction sets, ensemble.csv covers exactly the
    test birds with 0/1 labels, and ``evaluate`` printed a finite F1."""
    out, data = runner.run_dir / "out", runner.run_dir / "data"
    n_sets = len(list((out / "predictions").glob("*.csv")))
    if n_sets != workload.n_settings * workload.n_seeds:
        runner.fail(f"{n_sets} prediction sets, expected {workload.n_settings * workload.n_seeds}")
        return None
    voted = read_csv_rows(out / "ensemble.csv")
    truth = sorted(row[0] for row in read_csv_rows(data / "test_labels.csv"))
    if sorted(row[0] for row in voted) != truth or {row[1] for row in voted} - {"0", "1"}:
        runner.fail("ensemble.csv does not label exactly the test birds with 0/1")
        return None
    fields = dict(part.partition("=")[::2] for part in evaluate_stdout.split())
    if not finite_unit(fields.get("f1", "nan")):
        runner.fail(f"evaluate printed no finite F1: {evaluate_stdout.strip()!r}")
        return None
    return float(fields["f1"])


def output_hashes(run_dir: Path) -> dict:
    out = run_dir / "out"
    hashes = {}
    for name in ("cv_summary.csv", "ensemble.csv"):
        if (out / name).exists():
            hashes[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    predictions = sorted((out / "predictions").glob("*.csv"))
    if predictions:
        digest = hashlib.sha256()
        for path in predictions:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        hashes["predictions"] = digest.hexdigest()
    return hashes


def input_sizes(run_dir: Path, workload: Workload) -> dict:
    sizes = workload.sizes()
    for role in ("train", "test"):
        files = list((run_dir / "data" / role).glob("*.csv"))
        sizes[f"{role}_gps_points"] = sum(p.read_bytes().count(b"\n") - 1 for p in files)
    for mode in MODES:
        header = (run_dir / "out" / "features" / f"train_{mode}.csv").open().readline()
        sizes[f"columns_{mode}"] = header.count(",") - 1  # minus bird_id and label
    return sizes


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "workload_seed": seed,
    }


# --- the two kinds of run -------------------------------------------------------

def check_outputs(runner: Runner, workload: Workload, evaluate_stdout: str) -> dict | None:
    """The checks of one pass; returns its F1 values, or None when a check failed."""
    quality = check_cv(runner, workload)
    if quality is None:
        return None
    test_f1 = check_downstream(runner, workload, evaluate_stdout)
    return None if test_f1 is None else {**quality, "test_f1": test_f1}


def repeat(runner: Runner, seconds: float, one_pass) -> list | None:
    """Runs ``one_pass()`` once, and again while one more pass as long as the
    last would still end within ``seconds`` and before the run's deadline;
    returns the results. ``one_pass`` returns (result, its seconds), or None
    when it failed, and then this returns None."""
    results, start = [], time.monotonic()
    while True:
        done = one_pass()
        if done is None:
            return None
        results.append(done[0])
        now = time.monotonic()
        if now - start + done[1] > seconds or now + done[1] > runner.deadline:
            return results


def measure(runner: Runner, workload: Workload, seconds: float):
    """Untraced run: medians over as many chain passes as fit in ``seconds``."""
    setup_s = setup(runner, SETUP_REPEATS)
    if setup_s is None:
        return None, {}

    def one_pass():
        chain = run_chain(runner, workload)
        quality = chain and check_outputs(runner, workload, chain[2])
        return quality and ((chain[0], chain[1], quality), sum(chain[0].values()))

    passes = repeat(runner, seconds, one_pass)
    if passes is None:
        return None, {}
    quality = passes[-1][2]
    metrics = {
        "setup_s": setup_s,
        "total_s": statistics.median(sum(p[0].values()) for p in passes),
        "peak_rss_mb": statistics.median(p[1] for p in passes),
        "ensemble_cv_f1": quality["ensemble_cv_f1"],
        "median_setting_cv_f1": quality["median_setting_cv_f1"],
    }
    report = {
        "passes": len(passes),
        "stage_s": {cmd: statistics.median(p[0][cmd] for p in passes)
                    for cmd in workload.commands},
        "test_f1": quality["test_f1"],
        "sizes": input_sizes(runner.run_dir, workload),
        "sha256": output_hashes(runner.run_dir),
    }
    return metrics, report


def startup_s(runner: Runner) -> float:
    """A fresh interpreter plus ``import shearwater.cli``."""
    walls = [runner.run([sys.executable, "-c", "import shearwater.cli"])[1]
             for _ in range(STARTUP_REPEATS)]
    return statistics.median(walls)


def layer_metrics(stats: SpanStats) -> dict:
    get = stats.get
    m = {f"{layer}.self_s": s for layer, s in stats.layer_self().items()}
    m["synthgen.generate_corpus.busy_s"] = get("synthgen.generate_corpus", "busy_s")
    m["trajdata.save_corpus.busy_s"] = get("trajdata.save_corpus", "busy_s")
    m["trajdata.load_corpus.busy_s"] = get("trajdata.load_corpus", "busy_s")
    m["trajdata.load_corpus.points"] = get("trajdata.load_corpus", "points")
    m["geokin.feature_series.busy_s"] = get("geokin.feature_series", "busy_s")
    m["geokin.feature_series.calls"] = get("geokin.feature_series", "calls")
    m["geokin.velocities.busy_s"] = get("geokin.velocities", "busy_s")
    m["featex.bird_features.self_s"] = get("featex.bird_features", "self_s")
    m["featex.bird_features.calls"] = get("featex.bird_features", "calls")
    m["datasets.compute_thresholds.self_s"] = get("datasets.compute_thresholds", "self_s")
    for mode in MODES:
        m[f"datasets.build.{mode}.self_s"] = get(f"datasets.build.{mode}", "self_s")
    for name, key in [("to_csv", "busy_s"), ("to_csv", "bytes"), ("from_csv", "busy_s"),
                      ("from_csv", "bytes"), ("impute", "busy_s"), ("impute", "calls")]:
        m[f"datasets.{name}.{key}"] = get(f"datasets.{name}", key)
    for backend in TREE_BACKENDS:
        for key in ("busy_s", "trees", "leaves"):
            m[f"trees.fit_{backend}.{key}"] = get(f"trees.fit_{backend}", key)
    m["trees.build_bins.busy_s"] = get("trees.build_bins", "busy_s")
    m["trees.build_bins.calls"] = get("trees.build_bins", "calls")
    m["trees.predict.busy_s"] = get("trees.predict", "busy_s")
    m["trees.predict.row_visits"] = get("trees.predict", "row_visits")
    for learner in LEARNERS:
        m[f"boost.fit.{learner}.self_s"] = get(f"boost.fit.{learner}", "self_s")
    m["boost.predict_scores.self_s"] = get("boost.predict_scores", "self_s")
    m["boost.predict_scores.calls"] = get("boost.predict_scores", "calls")
    m["boost.to_dict.busy_s"] = get("boost.to_dict", "busy_s")
    m["boost.from_dict.busy_s"] = get("boost.from_dict", "busy_s")
    m["linsvm.fit_pegasos.busy_s"] = get("linsvm.fit_pegasos", "busy_s")
    m["linsvm.fit_pegasos.calls"] = get("linsvm.fit_pegasos", "calls")
    fold_fit = stats.fold_fit_medians()
    for mode in MODES:
        for learner in LEARNERS:
            setting = f"{mode}_{learner}"
            m[f"evalcv.fold_fit.{setting}.median_s"] = fold_fit.get(setting, 0.0)
    m["evalcv.cross_validate.self_s"] = get("evalcv.cross_validate", "self_s")
    m["evalcv.tune_threshold.busy_s"] = get("evalcv.tune_threshold", "busy_s")
    m["evalcv.tune_threshold.calls"] = get("evalcv.tune_threshold", "calls")
    m["evalcv.fit_final_model.self_s"] = get("evalcv.fit_final_model", "self_s")
    final, fits = stats.train_fit_calls()
    m["evalcv.train.fit_calls"] = fits
    m["evalcv.train.useful_fit_ratio"] = final / fits if fits else 0.0
    m["evalcv.majority_vote.busy_s"] = get("evalcv.majority_vote", "busy_s")
    m["evalcv.majority_vote.sets"] = get("evalcv.majority_vote", "sets")
    for cmd in CHAIN:
        m[f"cli.{cmd}.busy_s"] = get(f"cli.{cmd}", "busy_s")
        m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}", "self_s")
    return m


def measure_traced(runner: Runner, workload: Workload, seconds: float, spans_out: Path):
    """Traced run: per-layer metrics, and the cost of tracing itself.

    Each pass runs every command untraced and then traced, back to back, so
    that both see the host at about the same speed; passes repeat while
    another fits in ``seconds``. ``trace.overhead_s`` is the median over the
    passes of the traced minus the untraced chain time. The layer metrics come
    from the last pass; its spans and those of the traced set-up are written
    to ``spans_out``. Outputs are checked after the traced commands.
    """
    spans_dir = runner.run_dir / "spans"
    spans_dir.mkdir()
    if setup(runner, 1, spans_dir) is None:
        return None, {}

    def one_pass():
        shutil.rmtree(runner.run_dir / "out", ignore_errors=True)
        untraced, traced = {}, {}
        for cmd in workload.commands:
            ok, untraced[cmd], _, _ = runner.cli(command_args(cmd))
            if not ok:
                return None
            ok, traced[cmd], _, stdout = runner.cli(command_args(cmd), spans_dir / f"{cmd}.json")
            if not ok:
                return None
        quality = check_outputs(runner, workload, stdout)
        chain_s = sum(untraced.values()) + sum(traced.values())
        return quality and ((untraced, traced, quality), chain_s)

    passes = repeat(runner, seconds, one_pass)
    if passes is None:
        return None, {}
    untraced, traced, quality = passes[-1]
    files = [spans_dir / f"synth{i}.json" for i in range(len(SYNTH_ARGS))]
    files += [spans_dir / f"{cmd}.json" for cmd in workload.commands]
    spans = merge([json.loads(f.read_text()) for f in files])
    spans_out.write_text(json.dumps(spans))
    stats = SpanStats(spans)
    metrics = layer_metrics(stats)
    models = runner.run_dir / "out" / "models"
    metrics["boost.model_json.bytes"] = sum(p.stat().st_size for p in models.glob("*.json"))
    metrics["cli.evaluate.test_f1"] = quality["test_f1"]
    metrics["cli.startup_s"] = startup_s(runner)
    metrics["trace.overhead_s"] = statistics.median(
        sum(p[1].values()) - sum(p[0].values()) for p in passes)
    report = {
        "passes": len(passes),
        "untraced_stage_s": untraced,
        "traced_stage_s": traced,
        # what each workload stresses: layer self time as a share of its stage
        "layer_share": {
            cmd: {layer: s / traced[cmd] for layer, s in stats.layer_self(cmd).items() if s}
            for cmd in workload.commands
        },
        "sizes": input_sizes(runner.run_dir, workload),
        "sha256": output_hashes(runner.run_dir),
    }
    return metrics, report


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shearwater" / "cli.py").is_file():
        print(f"error: no shearwater sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = ROOT / ".bench_runs" / f"{stem}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, time.monotonic() + RUN_LIMIT_S)
    try:
        workload.write_configs(run_dir, args.seed)
        if args.trace:
            metrics, report = measure_traced(runner, workload, args.seconds,
                                             out_dir / f"{stem}-spans.json")
        else:
            metrics, report = measure(runner, workload, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if metrics is not None and set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3
    if metrics is None:
        runner.failed = max(runner.failed, 1)
        metrics = dict.fromkeys(units, 0.0)
    report.update(workload=workload.name, trace=args.trace, problems=runner.problems,
                  environment=environment(args.seed))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"report": report, **result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
