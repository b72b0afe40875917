import concurrent.futures
import json
import shutil
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwater.boost import GbdtParams, LearnerKind
from shearwater.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RunConfig, main
from shearwater.errors import PipelineError


def write_config(tmp_path, **overrides):
    doc = {
        "paths": {
            "train_dir": str(tmp_path / "train"),
            "train_labels": str(tmp_path / "train_labels.csv"),
            "test_dir": str(tmp_path / "test"),
            "test_labels": str(tmp_path / "test_labels.csv"),
            "out_dir": str(tmp_path / "out"),
        },
        "modes": ["together"],
        "learners": ["xgb_binary", "svc"],
        "params": {
            "default": {"n_rounds": 8, "max_depth": 2, "n_trees": 4, "svm_epochs": 5},
        },
        "n_seeds": 1,
        "base_seed": 11,
        "k_folds": 5,
        "synth": {"n_birds": 24, "seed": 5, "trip_length_min": 20, "trip_length_max": 30},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_default_config_enumerates_160_jobs(tmp_path):
    cfg_path = write_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    del doc["modes"], doc["learners"], doc["n_seeds"]
    cfg_path.write_text(json.dumps(doc))
    cfg = RunConfig.from_file(cfg_path)
    settings = cfg.settings()
    assert len(settings) == 16  # 8 learners x 2 modes
    assert len([(s, seed) for s in settings for seed in cfg.seeds()]) == 160
    assert len({s.name for s in settings}) == 16


def test_readme_config_example_names_every_learner_once(tmp_path):
    # the docs cannot list a learner that the CLI rejects, or leave one out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = RunConfig.from_file(path)
    assert sorted(kind.value for kind in cfg.learners) == sorted(kind.value for kind in LearnerKind)


@pytest.mark.parametrize(
    "overrides",
    [{"learners": ["svc", "sk_gbt"]}, {"params": {"sk_gbt": {"n_rounds": 3}}}],
    ids=["learners", "params"],
)
def test_removed_learner_sk_gbt_is_usage_error(tmp_path, capsys, overrides):
    # sk_gbt fitted what xgb_binary fits, and was deleted
    cfg = write_config(tmp_path, **overrides)
    assert main(["cv", "--config", str(cfg)]) == EXIT_USAGE
    assert "sk_gbt" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path):
    assert main(["folds", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_bad_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["folds", "--config", str(path)]) == EXIT_USAGE


def test_an_integer_json_cannot_read_is_usage_error(tmp_path, capsys):
    # json refuses an int of over 4300 digits with a ValueError, which exited 3
    cfg = write_config(tmp_path)
    doc = cfg.read_text()
    cfg.write_text(doc.replace('"n_seeds": 1', '"n_seeds": 1' + "0" * 5000))
    assert main(["folds", "--config", str(cfg)]) == EXIT_USAGE
    assert "config is not valid JSON" in capsys.readouterr().err


def test_unknown_learner_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, learners=["xgb_binary", "mystery_forest"])
    assert main(["cv", "--config", str(cfg)]) == EXIT_USAGE


def test_unknown_hyperparameter_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, params={"default": {"nrounds": 3}})
    assert main(["cv", "--config", str(cfg)]) == EXIT_USAGE


def test_missing_upstream_artifacts_is_data_error(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA  # no train dir yet
    assert main(["cv", "--config", str(cfg)]) == EXIT_DATA  # no features yet


def test_missing_required_flag_is_usage_error():
    assert main(["evaluate", "--predictions", "x.csv"]) == EXIT_USAGE


def test_folds_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    assert main(["folds", "--config", str(cfg)]) == EXIT_OK
    first = (tmp_path / "out" / "folds.csv").read_bytes()
    assert main(["folds", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "folds.csv").read_bytes() == first


def test_evaluate_perfect_predictions(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    truth = tmp_path / "truth.csv"
    preds.write_text("bird_id,label\nb0,1\nb1,0\n")
    truth.write_text("bird_id,label\nb0,1\nb1,0\n")
    assert main(["evaluate", "--predictions", str(preds), "--truth", str(truth)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accuracy=1.000000" in out
    assert "f1=1.000000" in out


def test_evaluate_names_a_predicted_bird_the_truth_file_lacks(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    truth = tmp_path / "truth.csv"
    preds.write_text("bird_id,label\nb0,1\nb1,0\n")
    truth.write_text("bird_id,label\nb0,1\n")
    assert main(["evaluate", "--predictions", str(preds), "--truth", str(truth)]) == EXIT_DATA
    assert "truth file lacks birds: ['b1']" in capsys.readouterr().err


def test_evaluate_names_the_physical_line(tmp_path, capsys):
    # a quoted bird id spans lines 2 and 3, so the bad label is on line 4
    preds = tmp_path / "preds.csv"
    truth = tmp_path / "truth.csv"
    preds.write_text("bird_id,label\nc,1\n")
    truth.write_text('bird_id,label\n"a\nb",1\nc,x\n')
    assert main(["evaluate", "--predictions", str(preds), "--truth", str(truth)]) == EXIT_DATA
    assert "line 4: label 'x' is not an integer" in capsys.readouterr().err


def test_full_pipeline_end_to_end(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    assert main(["synth", "--config", str(cfg), "--role", "test"]) == EXIT_OK
    assert main(["extract", "--config", str(cfg)]) == EXIT_OK
    assert main(["folds", "--config", str(cfg)]) == EXIT_OK
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    assert main(["predict", "--config", str(cfg)]) == EXIT_OK
    assert main(["ensemble", "--config", str(cfg)]) == EXIT_OK

    out = tmp_path / "out"
    assert (out / "features" / "train_together.csv").exists()
    assert (out / "features" / "test_together.csv").exists()
    assert (out / "features" / "manifest_together.txt").exists()
    assert (out / "cv_report.csv").exists()
    summary = (out / "cv_summary.csv").read_text().splitlines()
    assert summary[0] == "setting,mean_f1,threshold"
    assert summary[-1].startswith("ensemble,")
    models = sorted((out / "models").glob("*.json"))
    assert [m.stem for m in models] == ["together_svc_s11", "together_xgb_binary_s11"]
    predictions = sorted((out / "predictions").glob("*.csv"))
    assert len(predictions) == 2

    ensemble = (out / "ensemble.csv").read_text().splitlines()
    assert ensemble[0] == "bird_id,label"
    assert len(ensemble) == 1 + 24  # one row per test bird

    assert (
        main(
            [
                "evaluate",
                "--predictions",
                str(out / "ensemble.csv"),
                "--truth",
                str(tmp_path / "test_labels.csv"),
            ]
        )
        == EXIT_OK
    )


def test_cv_report_shape(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    assert main(["extract", "--config", str(cfg)]) == EXIT_OK
    assert main(["folds", "--config", str(cfg)]) == EXIT_OK
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    report = (tmp_path / "out" / "cv_report.csv").read_text().splitlines()
    assert report[0] == "setting,fold,f1"
    # 2 settings x 1 seed x 5 folds
    assert len(report) == 1 + 10
    for line in report[1:]:
        f1 = float(line.split(",")[2])
        assert 0.0 <= f1 <= 1.0


def prepare_folds(tmp_path, **overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    assert main(["extract", "--config", str(cfg)]) == EXIT_OK
    assert main(["folds", "--config", str(cfg)]) == EXIT_OK
    return cfg


def test_cv_takes_fold_count_from_folds_file(tmp_path):
    cfg = prepare_folds(tmp_path, learners=["svc"])  # folds.csv written with k=5
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    expected = {name: (out / name).read_bytes() for name in ("cv_report.csv", "cv_summary.csv")}
    cfg = write_config(tmp_path, learners=["svc"], k_folds=3)
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in expected} == expected
    report = (out / "cv_report.csv").read_text().splitlines()[1:]
    assert sorted(line.split(",")[1] for line in report) == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("command", ["cv", "train"])
def test_folds_missing_a_bird_is_data_error(tmp_path, capsys, command):
    cfg = prepare_folds(tmp_path, learners=["svc"])
    folds = tmp_path / "out" / "folds.csv"
    folds.write_text("\n".join(folds.read_text().splitlines()[:-1]) + "\n")
    assert main([command, "--config", str(cfg)]) == EXIT_DATA
    assert "folds.csv" in capsys.readouterr().err


def _set_field(path, line, field, value):
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    if value is None:
        del cells[field]
    else:
        cells[field] = value
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "command, relpath, field, value",
    [
        ("cv", "out/features/train_together.csv", 5, "abc"),  # non-numeric cell
        ("cv", "out/features/train_together.csv", 1, "x"),  # bad label
        ("cv", "out/features/train_together.csv", -1, None),  # ragged row
        ("cv", "out/folds.csv", 1, "one"),  # non-integer fold
        ("ensemble", "out/predictions/together_svc_s11.csv", 1, "yes"),  # non-integer label
        # an infinite feature: cv read it as a score of NaN, then a bird in no fold
        ("cv", "out/features/train_together.csv", 5, "inf"),
        ("cv", "out/features/train_together.csv", 5, "-inf"),
        ("cv", "out/features/train_together.csv", 5, "1e400"),
        # a bird repeated from line 2: folds.csv kept its last row, the others both
        ("cv", "out/features/train_together.csv", 0, "bird_0000"),
        ("cv", "out/folds.csv", 0, "bird_0000"),
        ("ensemble", "out/predictions/together_svc_s11.csv", 0, "b0"),
        ("ensemble", "out/predictions/together_svc_s11.csv", 1, "7"),  # counted as 7 votes
    ],
)
def test_malformed_internal_csv_is_data_error(tmp_path, capsys, command, relpath, field, value):
    cfg = prepare_folds(tmp_path, learners=["svc"])
    predictions = tmp_path / "out" / "predictions"
    predictions.mkdir()
    (predictions / "together_svc_s11.csv").write_text("bird_id,label\nb0,1\nb1,0\n")
    path = tmp_path / relpath
    _set_field(path, 2, field, value)
    assert main([command, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert path.name in err
    assert "line 3" in err


def test_synth_seed_flag_keeps_test_role_distinct(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--seed", "7"]) == EXIT_OK
    assert main(["synth", "--config", str(cfg), "--seed", "7", "--role", "test"]) == EXIT_OK
    assert main(["synth", "--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "s8")]) == EXIT_OK

    def corpus(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}

    assert corpus(tmp_path / "test") != corpus(tmp_path / "train")
    assert corpus(tmp_path / "test") == corpus(tmp_path / "s8")


SYNTH = {"n_birds": 24, "seed": 5, "trip_length_min": 20, "trip_length_max": 30}


@pytest.mark.parametrize(
    "command, overrides, flags, field",
    [
        ("folds", {"k_folds": 0}, [], "k_folds"),  # was a ZeroDivisionError
        ("folds", {"k_folds": -2}, [], "k_folds"),  # wrote fold ids -1 and 0
        ("folds", {"k_folds": 1}, [], "k_folds"),  # passed, then cv saw one class
        ("synth", {"synth": {**SYNTH, "n_birds": 0}}, [], "n_birds"),
        ("synth", {"synth": {**SYNTH, "seed": -4}}, [], "seed"),
        ("synth", {}, ["--seed", "-1"], "--seed"),
        ("folds", {}, ["--seed", "-1"], "--seed"),
        ("cv", {}, ["--seed", "-1"], "--seed"),
        ("synth", {"synth": {**SYNTH, "n_birds": "many"}}, [], "synth.n_birds"),  # was exit 3
        ("synth", {"synth": {**SYNTH, "n_birds": True}}, [], "synth.n_birds"),
        ("synth", {"synth": {**SYNTH, "trip_length_min": 20.5}}, [], "synth.trip_length_min"),
        ("synth", {"synth": {**SYNTH, "male_speed": "fast"}}, [], "synth.male_speed"),
        ("folds", {"k_folds": 3.7}, [], "k_folds"),  # ran 3 folds
        ("folds", {"n_seeds": True}, [], "n_seeds"),  # ran 1 seed
        ("folds", {"base_seed": "12"}, [], "base_seed"),  # ran seed 12
        ("cv", {"params": {"default": {"n_trees": 2.5}}}, [], "params.svc.n_trees"),  # exit 3
        ("cv", {"params": {"svc": {"max_depth": "2"}}}, [], "params.svc.max_depth"),  # exit 3
        ("cv", {"params": {"svc": {"svm_reg": "0.1"}}}, [], "params.svc.svm_reg"),
        ("cv", {"params": {"svc": {"svm_reg": 0}}}, [], "params.svc.svm_reg"),  # exit 3
        ("cv", {"params": {"default": {"svm_reg": -0.5}}}, [], "params.svc.svm_reg"),
        # weights of 0/0, then cv's "birds in no fold", exit 2
        ("cv", {"params": {"svc": {"svm_epochs": 0}}}, [], "params.svc.svm_epochs"),
        # each of these was accepted; n_trees 0 and n_rounds -1 trained constant models
        ("cv", {"params": {"svc": {"n_trees": 0}}}, [], "params.svc.n_trees"),
        ("cv", {"params": {"default": {"n_rounds": -1}}}, [], "params.svc.n_rounds"),
        ("cv", {"params": {"svc": {"max_depth": 0}}}, [], "params.svc.max_depth"),
        ("cv", {"params": {"svc": {"max_bin_edges": 0}}}, [], "params.svc.max_bin_edges"),
        ("cv", {"params": {"svc": {"pair_cap_factor": 0}}}, [], "params.svc.pair_cap_factor"),
        ("cv", {"params": {"svc": {"learning_rate": 0}}}, [], "params.svc.learning_rate"),
        ("cv", {"params": {"svc": {"subsample": 0.0}}}, [], "params.svc.subsample"),
        ("cv", {"params": {"svc": {"subsample": 1.5}}}, [], "params.svc.subsample"),
        ("cv", {"params": {"svc": {"colsample": -0.2}}}, [], "params.svc.colsample"),
        ("cv", {"params": {"svc": {"reg_lambda": -1}}}, [], "params.svc.reg_lambda"),
        ("cv", {"params": {"svc": {"min_child_weight": -0.5}}}, [], "params.svc.min_child_weight"),
        # each config shape below exited 3 with a traceback
        *(
            (command, overrides, [], field)
            for command in ("folds", "synth")
            for overrides, field in [
                (None, "expected an object, got []"),  # the document is a list
                ({"paths": []}, "paths"),
                ({"learners": 5}, "learners"),
                ({"params": []}, "params"),
                ({"params": {"svc": 3}}, "params.svc"),
                ({"paths": {"train_dir": 5, "train_labels": "l.csv", "out_dir": "out"}},
                 "paths.train_dir"),
            ]
        ),
        ("synth", {"synth": []}, [], "synth"),
        # a repeated learner exited 0: svc voted twice and cv_summary.csv listed it twice
        ("folds", {"learners": ["svc", "svc", "sk_et"]}, [], "learners lists ['svc']"),
        ("synth", {"learners": ["svc", "svc", "sk_et"]}, [], "learners lists ['svc']"),
        ("folds", {"modes": ["split", "together", "split"]}, [], "modes lists ['split']"),
        # ValueError: embedded null byte, exit 3 (relative paths are under tmp_path)
        ("folds", {"paths": {"train_dir": "train", "train_labels": "train_labels.csv",
                             "out_dir": "o\0ut"}}, [], "paths.out_dir"),
        # exit 3 from numpy's draws, or exit 2 blaming a bird row the draw put out of range
        *(
            ("synth", {"synth": {**SYNTH, name: value}}, [], f"synth.{name}")
            for name, value in [
                ("speed_sigma", -1), ("cadence_jitter_s", -5), ("male_turn_concentration", 0),
                ("female_turn_concentration", -1), ("cycle_period_s", 0), ("start_lat", 100),
                ("start_lon", 500),
            ]
        ),
        ("cv", {}, ["--jobs", "0"], "--jobs"),  # ran serially
        ("train", {}, ["--jobs", "-1"], "--jobs"),
        # json reads 1e400 as inf: infinite regularization trained single-leaf trees with exit 0,
        # an infinite learning rate was "non-finite score" (exit 2), and 10**400 exit 3
        ("cv", {"params": {"svc": {"min_child_weight": float("inf")}}}, [],
         "params.svc.min_child_weight"),
        ("cv", {"params": {"default": {"reg_lambda": float("inf")}}}, [], "params.svc.reg_lambda"),
        ("cv", {"params": {"svc": {"learning_rate": float("inf")}}}, [],
         "params.svc.learning_rate"),
        ("cv", {"params": {"svc": {"learning_rate": 10**400}}}, [], "params.svc.learning_rate"),
        ("cv", {"params": {"svc": {"nrounds": 3}}}, [], "params.svc.nrounds is not a parameter"),
        ("synth", {"synth": {**SYNTH, "n_bird": 3}}, [], "synth.n_bird is not a parameter"),
        ("synth", {"synth": {**SYNTH, "male_speed": float("inf")}}, [], "synth.male_speed"),
        ("synth", {"synth": {**SYNTH, "cadence_s": float("inf")}}, [], "synth.cadence_s"),
        ("synth", {"synth": {**SYNTH, "speed_sigma": 10**400}}, [], "synth.speed_sigma"),
        ("folds", {"n_seeds": 0}, [], "n_seeds must be >= 1"),
        ("folds", {"base_seed": -1}, [], "base_seed must be >= 0"),
        ("folds", {"learners": []}, [], "config enables no settings"),
        ("folds", {"paths": {"train_dir": "train", "out_dir": "out"}}, [],
         "paths.train_labels is missing"),
        ("synth", {"paths": {"train_dir": "train", "train_labels": "l.csv", "out_dir": "out"}},
         ["--role", "test"], "paths.test_dir"),
        # numpy's draws take an int64: trip_length_max exited 3, n_birds ran until killed
        ("synth", {"synth": {**SYNTH, "trip_length_max": 10**22}}, [], "synth.trip_length_max"),
        ("synth", {"synth": {**SYNTH, "n_birds": 10**22}}, [], "synth.n_birds"),
        # a misspelt field ran with the default: folds wrote k=5 for k_fold 3
        ("folds", {"k_fold": 3}, [], "bad config: k_fold is not a parameter"),
        ("synth", {"n_seed": 1}, [], "bad config: n_seed is not a parameter"),
        ("synth", {"paths": {"train_dir": "train", "train_labels": "l.csv", "out_dir": "out",
                             "test_labls": "x.csv"}}, [], "paths.test_labls is not a parameter"),
        # a block of a learner the config does not enable was not read
        ("folds", {"params": {"cat": {"n_round": 3}}}, [], "params.cat.n_round is not a parameter"),
        ("folds", {"params": {"cat": {"learning_rate": -1}}}, [],
         "params.cat.learning_rate must be > 0"),
    ],
)
def test_bad_run_setting_is_usage_error(
    tmp_path, capsys, monkeypatch, command, overrides, flags, field
):
    prepare_folds(tmp_path, learners=["svc"])
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **{"learners": ["svc"], **(overrides or {})})
    if overrides is None:
        cfg.write_text("[]")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *flags]) == EXIT_USAGE
    assert field in capsys.readouterr().err


def test_jobs_start_no_more_workers_than_runs(tmp_path, monkeypatch):
    # the pool starts every worker at its first submit: --jobs 64 on 2 runs forked 64
    started = []

    class Pool:  # runs the tasks in this process and records the pool's size
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = prepare_folds(tmp_path, learners=["svc"], n_seeds=2)
    for command in ("cv", "train"):
        assert main([command, "--config", str(cfg), "--jobs", "64"]) == EXIT_OK
    assert started == [2, 2]


def test_non_finite_learner_score_names_the_setting_and_fold(tmp_path, capsys):
    # a column of +-1e308 is finite, but svc's standardisation overflows on it
    # and every score is NaN; cv read those as birds in no fold
    cfg = prepare_folds(tmp_path, learners=["svc"])
    path = tmp_path / "out" / "features" / "train_together.csv"
    for line in range(1, 25):
        _set_field(path, line, 5, "1e308" if line % 2 else "-1e308")
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):  # the overflow, and the NaN it makes
        assert main(["cv", "--config", str(cfg)]) == EXIT_DATA
    assert "together_svc seed 11 fold 0: non-finite score" in capsys.readouterr().err


def test_every_hyperparameter_has_a_domain():
    GbdtParams().validate()
    for name in (f.name for f in fields(GbdtParams)):  # -1 is outside every domain
        with pytest.raises(ValueError, match=f"^{name} must be "):
            replace(GbdtParams(), **{name: -1}).validate()


def test_predict_refuses_non_finite_scores(tmp_path, capsys):
    # +-1e308 features are finite, but svc's standardisation overflows on them
    # and every score is NaN; predict labelled each bird 0 and exited 0
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["svc"])
    path = tmp_path / "out" / "features" / "test_together.csv"
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        lines[i] = ",".join(cells[:1] + ["1e308" if i % 2 else "-1e308"] * (len(cells) - 1))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):  # the overflow, and the NaN it makes
        assert main(["predict", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "together_svc_s11.json: non-finite score for 24 birds" in err
    assert "bird_0000" in err
    assert not (tmp_path / "out" / "predictions" / "together_svc_s11.csv").exists()


def test_synth_float_field_takes_an_int(tmp_path):
    cfg = RunConfig.from_file(write_config(tmp_path, synth={**SYNTH, "male_speed": 12}))
    assert cfg.synth_params().male_speed == 12


def test_hyperparameter_float_field_takes_an_int(tmp_path):
    cfg = RunConfig.from_file(write_config(tmp_path, params={"default": {"learning_rate": 1}}))
    assert cfg.params_for(LearnerKind.SVC).learning_rate == 1


def test_truncated_model_is_data_error(tmp_path, capsys):
    cfg = prepare_folds(tmp_path, learners=["svc"])
    assert main(["synth", "--config", str(cfg), "--role", "test"]) == EXIT_OK
    assert main(["extract", "--config", str(cfg)]) == EXIT_OK
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    model = tmp_path / "out" / "models" / "together_svc_s11.json"
    model.write_text(model.read_text()[:100])
    assert main(["predict", "--config", str(cfg)]) == EXIT_DATA
    assert model.name in capsys.readouterr().err


def _duplicate_first_feature(text):
    header, rest = text.split("\n", 1)
    cells = header.split(",")  # bird_id,label,<features>
    cells[3] = cells[2]
    return ",".join(cells) + "\n" + rest


@pytest.mark.parametrize(
    "edit",
    [
        _duplicate_first_feature,
        lambda text: "",
        # an unterminated quote swallows the rest of the file into one field,
        # which outgrows the csv module's field size limit
        lambda text: text.replace("\n", '\n"', 1),
    ],
    ids=["duplicate-column", "empty-file", "stray-quote"],
)
def test_unreadable_feature_csv_is_data_error(tmp_path, capsys, edit):
    # 40 birds, so that the matrix outgrows the csv field size limit
    synth = {"n_birds": 40, "seed": 5, "trip_length_min": 20, "trip_length_max": 30}
    cfg = prepare_folds(tmp_path, learners=["svc"], synth=synth)
    path = tmp_path / "out" / "features" / "train_together.csv"
    path.write_text(edit(path.read_text()))
    assert main(["cv", "--config", str(cfg)]) == EXIT_DATA
    assert path.name in capsys.readouterr().err


def _drop_thresholds(tmp_path, cfg):
    (tmp_path / "out" / "cv_thresholds.json").unlink()


def _truncate_thresholds(tmp_path, cfg):
    path = tmp_path / "out" / "cv_thresholds.json"
    path.write_text(path.read_text()[:60])


def _change_hyperparameter(tmp_path, cfg):
    params = json.loads(cfg.read_text())["params"]
    params["default"]["svm_epochs"] += 1
    write_config(tmp_path, learners=["svc"], n_seeds=2, params=params)


def _refold_with_other_seed(tmp_path, cfg):
    folds = tmp_path / "out" / "folds.csv"
    before = folds.read_bytes()
    assert main(["folds", "--config", str(cfg), "--seed", "12"]) == EXIT_OK
    assert folds.read_bytes() != before


def _nan_threshold(tmp_path, cfg):
    path = tmp_path / "out" / "cv_thresholds.json"
    doc = json.loads(path.read_text())
    doc["together_svc#s11"]["threshold"] = float("nan")
    path.write_text(json.dumps(doc))  # json writes and reads it as NaN


def _delete_entry(tmp_path, cfg):
    path = tmp_path / "out" / "cv_thresholds.json"
    doc = json.loads(path.read_text())
    del doc["together_svc#s12"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, named",
    [
        (_drop_thresholds, "run cv first"),
        (_truncate_thresholds, "not a thresholds file"),
        (_change_hyperparameter, "together_svc#s11 is stale"),
        (_refold_with_other_seed, "together_svc#s11 is stale"),
        (_delete_entry, "together_svc#s12"),
        (_nan_threshold, "threshold of together_svc#s11 is nan"),  # was accepted
    ],
    ids=["missing", "truncated", "hyperparameter", "folds-seed", "entry-deleted", "nan"],
)
def test_train_needs_current_cv_thresholds(tmp_path, capsys, edit, named):
    cfg = prepare_folds(tmp_path, learners=["svc"], n_seeds=2)
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    edit(tmp_path, cfg)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "cv_thresholds.json" in err
    assert named in err
    assert not (tmp_path / "out" / "models").exists()


def test_models_carry_the_thresholds_cv_tuned(tmp_path):
    cfg = prepare_folds(tmp_path, n_seeds=2)
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    summary = [line.split(",") for line in (out / "cv_summary.csv").read_text().splitlines()]
    tuned = json.loads((out / "cv_thresholds.json").read_text())
    rows = [row for row in summary[1:] if row[0] != "ensemble"]
    assert sorted(tuned) == [name for name, _, _ in rows]
    for name, _, threshold in rows:
        setting, seed = name.split("#s")
        model = json.loads((out / "models" / f"{setting}_s{seed}.json").read_text())
        assert repr(model["threshold"]) == threshold
        assert repr(tuned[name]["threshold"]) == threshold


def _run_chain(tmp_path, commands, **overrides):
    cfg = write_config(tmp_path, **overrides)
    for command in commands:
        assert main(command.split() + ["--config", str(cfg)]) == EXIT_OK


def test_predict_and_ensemble_read_only_the_configured_runs(tmp_path):
    # On these birds svc labels some males 0 where xgb_binary labels them 1,
    # and the training-prevalent class (the tie label) is 0, so a leftover
    # svc model or prediction voted in changes the xgb_binary ensemble.
    everything = ["synth", "synth --role test", "extract", "folds", "cv", "train", "predict",
                  "ensemble"]
    (tmp_path / "clean").mkdir()
    _run_chain(tmp_path / "clean", everything, learners=["xgb_binary"])
    (tmp_path / "mixed").mkdir()
    _run_chain(tmp_path / "mixed", everything[:-1], learners=["svc", "xgb_binary"])
    _run_chain(tmp_path / "mixed", ["predict", "ensemble"], learners=["xgb_binary"])
    assert (tmp_path / "mixed" / "out" / "ensemble.csv").read_bytes() == (
        tmp_path / "clean" / "out" / "ensemble.csv"
    ).read_bytes()


def _files(out, directory):
    return {path.name: path.read_bytes() for path in sorted((out / directory).glob("*"))}


def test_settings_do_not_leak_into_each_other(tmp_path):
    chain = ["synth", "synth --role test", "extract", "folds", "cv", "train", "predict"]
    settings = {"learners": ["xgb_binary", "sk_et", "svc"], "modes": ["together", "split"]}
    for run in ("all", "fewer"):
        (tmp_path / run).mkdir()
    _run_chain(tmp_path / "all", chain, **settings)
    _run_chain(tmp_path / "fewer", chain, **{**settings, "learners": ["xgb_binary", "svc"]})
    out, fewer = tmp_path / "all" / "out", tmp_path / "fewer" / "out"

    # dropping sk_et leaves every other setting's outputs as they were
    tuned = json.loads((out / "cv_thresholds.json").read_text())
    kept = {name: entry for name, entry in tuned.items() if "sk_et" not in name}
    assert (fewer / "cv_thresholds.json").read_text() == json.dumps(kept, indent=1) + "\n"
    for directory in ("models", "predictions"):
        everything = _files(out, directory)
        assert len(everything) == 6
        assert _files(fewer, directory) == {
            name: data for name, data in everything.items() if "sk_et" not in name
        }

    # a test bird more changes no model, nor any other bird's label
    models, predictions = _files(out, "models"), _files(out, "predictions")
    extra = sorted((tmp_path / "all" / "train").glob("*.csv"))[0]
    shutil.copy(extra, tmp_path / "all" / "test" / "zz_extra.csv")  # sorts last
    _run_chain(tmp_path / "all", chain[2:], **settings)
    assert _files(out, "models") == models
    for name, data in _files(out, "predictions").items():
        assert data.startswith(predictions[name]) and data != predictions[name]


def test_predict_names_a_missing_model(tmp_path, capsys):
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["svc"])
    cfg = write_config(tmp_path, learners=["svc"], n_seeds=2)
    assert main(["predict", "--config", str(cfg)]) == EXIT_DATA
    assert "together_svc_s12.json" in capsys.readouterr().err


LABEL_READERS = ["folds", "extract", "ensemble", "evaluate"]


@pytest.mark.parametrize(
    "command, field, value",
    [pytest.param(command, 1, "x", id=command) for command in LABEL_READERS]
    # a repeated bird: its last row was kept
    + [pytest.param(command, 0, "bird_0000", id=f"{command}-repeated-bird")
       for command in LABEL_READERS],
)
def test_bad_label_names_the_file_and_line(tmp_path, capsys, command, field, value):
    cfg = prepare_folds(tmp_path, learners=["svc"])
    predictions = tmp_path / "out" / "predictions"
    predictions.mkdir()
    (predictions / "together_svc_s11.csv").write_text("bird_id,label\nb0,1\nb1,0\n")
    labels = tmp_path / "train_labels.csv"
    _set_field(labels, 2, field, value)
    capsys.readouterr()
    if command == "evaluate":
        argv = ["evaluate", "--predictions", str(predictions / "together_svc_s11.csv"),
                "--truth", str(labels)]
    else:
        argv = [command, "--config", str(cfg)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert labels.name in err
    assert "line 3" in err


@pytest.mark.parametrize(
    "field, value",
    [
        (0, "abc"),  # non-numeric longitude
        (6, "12:xx:00"),  # bad local_time
        (1, "95.0"),  # latitude out of range
        (5, "0"),  # elapsed_time not increasing
        (7, "99999999999999999999"),  # days wider than int64
        (6, "99999999999999999999:00:00"),  # local_time hour wider than int64
    ],
    ids=["longitude", "local_time", "latitude", "elapsed", "days-int64", "hour-int64"],
)
def test_bad_trajectory_field_names_the_file_and_line(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, learners=["svc"])
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    assert main(["synth", "--config", str(cfg), "--role", "test"]) == EXIT_OK
    for corpus in ("train", "test"):  # both corpora hold the same bird ids
        path = sorted((tmp_path / corpus).glob("*.csv"))[0]
        text = path.read_text()
        _set_field(path, 2, field, value)
        capsys.readouterr()
        assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path}: " in err  # the file with its corpus directory
        assert "line 3" in err
        path.write_text(text)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda text: text + "ghost,1\n", "ghost"),
        (lambda text: text.replace("bird_0023,1\n", "").replace("bird_0023,0\n", ""), "bird_0023"),
    ],
    ids=["label-without-trajectory", "trajectory-without-label"],
)
def test_labels_mismatch_names_the_labels_file(tmp_path, capsys, edit, named):
    cfg = write_config(tmp_path, learners=["svc"])
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    labels = tmp_path / "train_labels.csv"
    text = labels.read_text()
    labels.write_text(edit(text))
    assert labels.read_text() != text
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(labels) in err
    assert named in err


def test_a_bad_trajectory_file_is_named_before_a_labels_mismatch(tmp_path, capsys):
    # the training corpus is built before its labels are read
    cfg = write_config(tmp_path, learners=["svc"])
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    labels = tmp_path / "train_labels.csv"
    labels.write_text(labels.read_text() + "ghost,1\n")
    path = tmp_path / "train" / "bird_0003.csv"
    _set_field(path, 2, 0, "abc")
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}: bird_0003: line 3: unparseable longitude 'abc'" in err
    assert "ghost" not in err


def test_the_first_bad_bird_in_bird_id_order_is_named(tmp_path, capsys):
    # each trajectory's features are derived before the next file is parsed,
    # so bird_0000's kinematics error comes before bird_0005's bad cell
    cfg = write_config(tmp_path, learners=["svc"])
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    first = tmp_path / "train" / "bird_0000.csv"
    lines = first.read_text().splitlines()
    for i in range(1, len(lines)):
        _set_field(first, i, 5, repr((i - 1) * 1e-300))
    _set_field(tmp_path / "train" / "bird_0005.csv", 2, 0, "abc")
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{tmp_path / 'train'}: bird_0000: velocity passes" in err
    assert "bird_0005" not in err


def _retune_svm_epochs(tmp_path):
    params = json.loads((tmp_path / "config.json").read_text())["params"]
    params["default"]["svm_epochs"] = 9
    write_config(tmp_path, learners=["svc"], params=params)


def _strip_fingerprint(tmp_path):
    model = tmp_path / "out" / "models" / "together_svc_s11.json"
    doc = json.loads(model.read_text())
    del doc["fingerprint"]
    model.write_text(json.dumps(doc))


@pytest.mark.parametrize("edit", [_retune_svm_epochs, _strip_fingerprint],
                         ids=["hyperparameter", "no-fingerprint"])
def test_predict_refuses_a_model_not_trained_on_the_current_inputs(tmp_path, capsys, edit):
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["svc"])
    edit(tmp_path)
    capsys.readouterr()
    assert main(["predict", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "together_svc_s11.json" in err
    assert "re-run train" in err
    assert not (tmp_path / "out" / "predictions" / "together_svc_s11.csv").exists()


def _first_tree(doc):
    tree = doc["trees"][0]
    assert tree["child"][0] > 0, "the first tree is a single leaf"
    return tree


def _set_tree_feature(feature):
    def edit(doc):
        _first_tree(doc)["feature"][0] = feature
    return edit


def _set_threshold(value):
    def edit(doc):  # NaN and inf labelled every bird 0, -inf every bird 1
        doc["threshold"] = value
    return edit


def _nan_tree_threshold(doc):
    _first_tree(doc)["threshold"][0] = float("nan")  # the root sent every row left


def _point_child_back(doc):
    _first_tree(doc)["child"][0] = 0  # a cycle: the root sends rows left to itself


def _point_child_past_the_end(doc):
    tree = _first_tree(doc)
    tree["child"][0] = len(tree["child"]) - 1


def _cut_tree_values(doc):
    _first_tree(doc)["value"].pop()


def _set_f0(value):
    def edit(doc):
        doc["f0"] = value
    return edit


def _cut_svm_weights(doc):
    doc["svm"]["weights"] = doc["svm"]["weights"][:5]


def _drop_trees(doc):
    del doc["trees"]


def _set_tree_array(key, value):
    def edit(doc):
        doc["trees"][0][key] = value
    return edit


def _set_svm(key, value):
    def edit(doc):  # each was read as a number
        doc["svm"][key] = value(doc["svm"][key]) if callable(value) else value
    return edit


def test_predict_refuses_a_model_in_the_nested_tree_format(tmp_path, capsys):
    # models written before trees were node arrays held nested nodes
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["sk_rf"])
    model = tmp_path / "out" / "models" / "together_sk_rf_s11.json"
    doc = json.loads(model.read_text())
    stump = {"feature": 0, "threshold": 0.5, "missing_left": True,
             "left": {"value": 0.25}, "right": {"value": 0.75}}
    doc["trees"] = [{"n_features": len(doc["feature_names"]), "root": stump}] * 2
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "together_sk_rf_s11.json" in err
    assert "re-run train" in err
    assert "KeyError" not in err


@pytest.mark.parametrize(
    "model_name, edit, named",
    [
        ("together_sk_rf_s11.json", _set_tree_feature(100000), "split feature outside"),
        ("together_sk_rf_s11.json", _set_tree_feature(-1), "split feature outside"),
        ("together_svc_s11.json", _cut_svm_weights, "svm weights is not a list of"),
        ("together_sk_rf_s11.json", _drop_trees, "either trees or an svm"),
        ("together_sk_rf_s11.json", _point_child_back, "child must come after it"),
        ("together_sk_rf_s11.json", _point_child_past_the_end, "tree children out of range"),
        ("together_sk_rf_s11.json", _cut_tree_values, "not one size per tree"),
        ("together_sk_rf_s11.json", _nan_tree_threshold, "a tree threshold is NaN"),
        ("together_sk_rf_s11.json", _set_tree_array("feature", 0), "tree arrays must be lists"),
        ("together_svc_s11.json", _set_threshold(float("nan")), "threshold nan is not finite"),
        ("together_svc_s11.json", _set_threshold(float("inf")), "threshold inf is not finite"),
        ("together_sk_rf_s11.json", _set_threshold(float("-inf")), "threshold -inf is not finite"),
        # predicted at tau = 1.0
        ("together_svc_s11.json", _set_threshold(True), "threshold True is not a float"),
        ("together_svc_s11.json", _set_f0(False), "f0 False is not a float"),  # read as 0.0
        ("together_svc_s11.json", _set_svm("bias", True), "svm bias True is not a float"),
        ("together_svc_s11.json", _set_svm("bias", "7"), "svm bias '7' is not a float"),
        ("together_svc_s11.json", _set_svm("weights", lambda w: [True] * len(w)),
         "svm weights is not a list of"),
    ],
    ids=["feature-too-large", "feature-negative", "svm-weights-cut", "no-trees",
         "child-cycle", "child-out-of-range", "unequal-arrays", "nan-split-threshold",
         "feature-not-a-list", "nan-threshold", "inf-threshold", "minus-inf-threshold",
         "bool-threshold", "bool-f0", "bool-svm-bias", "string-svm-bias", "bool-svm-weights"],
)
def test_predict_refuses_a_model_that_does_not_fit_its_schema(
    tmp_path, capsys, model_name, edit, named
):
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["sk_rf", "svc"])
    model = tmp_path / "out" / "models" / model_name
    doc = json.loads(model.read_text())
    edit(doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{model_name}: not a model file" in err
    assert named in err


@pytest.mark.parametrize("step, series", [(1e-300, "velocity"), (1e-100, "acceleration")])
def test_overflowing_kinematics_name_the_bird_and_the_series(tmp_path, capsys, step, series):
    # elapsed_time i * step increases strictly, so the track parses; at
    # 1e-300 the acceleration overflowed, and extract exited 3 on a RuntimeWarning;
    # the error names the corpus directory, the bird and the series
    cfg = write_config(tmp_path, learners=["svc"])
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    path = sorted((tmp_path / "train").glob("*.csv"))[0]
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[5] = repr((i - 1) * step)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path.parent}: {path.stem}: {series} passes" in err


# --- extraction -----------------------------------------------------------------

EXTRACT_SYNTH = {"n_birds": 12, "seed": 8, "trip_length_min": 40, "trip_length_max": 90}

# sha256 of every file extract writes on the corpora of EXTRACT_SYNTH, in
# both modes; a change to how features are derived must keep each byte
EXTRACT_DIGESTS = {
    "manifest_split.txt": "e81b740dfec7e07b9f4fd4e21678385ad52ce322c77492ff2437e63e82b9d0d8",
    "manifest_together.txt": "883be27b292488d597fa86aacf2bf932b52cf6fd4eccae688716ae94077dcc4d",
    "test_split.csv": "4cbef9e20502c732af6b7c6fe5566dbd27ded16bddbc15e013a2d7c0d77e6561",
    "test_together.csv": "3c4b0b9b69c3c4504015e083cb63594fb6c8ff1295ecbe8e4326b95c7b049e18",
    "thresholds_split.json": "fd354788261c4a48d873e88477220b3080523a26a0ab29c3ef58988355605b09",
    "thresholds_together.json": "6c7180642b42e82284b1231e2be766c9c9b87f5b00f43ddcf5f86b76b48cc435",
    "train_split.csv": "7bbe70520dfead25b1f288dd34098c0765fbd8efd921bdf1a0dc53a8a4e5a74f",
    "train_together.csv": "83c89cbdad012ade0ca1f09dd7e4b2ed1e72848901fdfaf1aefc8fdc4b885784",
}


def _extract(tmp_path):
    cfg = write_config(tmp_path, modes=["together", "split"], synth=EXTRACT_SYNTH)
    for command in ("synth", "synth --role test", "extract"):
        assert main(command.split() + ["--config", str(cfg)]) == EXIT_OK
    return tmp_path / "out" / "features"


def test_extract_outputs_are_pinned(tmp_path):
    import hashlib

    features = _extract(tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(features.iterdir())
    }
    thresholds = json.loads((features / "thresholds_split.json").read_text())
    assert thresholds["day"] is not None and thresholds["night"] is not None
    assert digests == EXTRACT_DIGESTS


def test_extract_derives_each_track_once(tmp_path, monkeypatch):
    # one filter by daytime and one kinematics pass per bird and subset: the
    # thresholds pool the speeds the feature rows were derived from
    from shearwater import geokin
    from shearwater.trajdata import Trajectory

    calls = {"steps": 0, "filter": 0}
    steps, filter_daytime = geokin._steps, Trajectory.filter_daytime

    def counted_steps(traj):
        calls["steps"] += 1
        return steps(traj)

    def counted_filter(self, flag):
        calls["filter"] += 1
        return filter_daytime(self, flag)

    monkeypatch.setattr(geokin, "_steps", counted_steps)
    monkeypatch.setattr(Trajectory, "filter_daytime", counted_filter)
    _extract(tmp_path)
    birds = 2 * EXTRACT_SYNTH["n_birds"]  # train and test
    assert 0 < calls["filter"] <= birds * 2  # split mode's day and night
    assert 0 < calls["steps"] <= birds * 3  # and together mode's whole track


# --- memory: one trajectory at a time, no bins that no learner reads -------------

def test_extract_holds_one_trajectory_at_a_time(tmp_path, monkeypatch):
    # each trajectory is dropped before the next file is parsed, in both corpora
    import weakref

    from shearwater import trajdata

    parse, parsed, alive_at_parse = trajdata.parse_trajectory, [], []

    def tracked(*args):
        alive_at_parse.append(sum(ref() is not None for ref in parsed))
        traj = parse(*args)
        parsed.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(trajdata, "parse_trajectory", tracked)
    _extract(tmp_path)
    assert alive_at_parse == [0] * 2 * EXTRACT_SYNTH["n_birds"]


def test_train_writes_each_model_before_the_next_fit(tmp_path, monkeypatch):
    # one model alive at a time: model i is on disk before fit i + 1 starts
    from shearwater import cli

    events = []
    fit, write = cli.fit_final_model, cli.atomic_write_text

    def fitted(setting, *args):
        events.append(("fit", setting.name))
        return fit(setting, *args)

    def written(path, text):
        if Path(path).parent.name == "models":
            events.append(("write", Path(path).stem))
        return write(path, text)

    monkeypatch.setattr(cli, "fit_final_model", fitted)
    monkeypatch.setattr(cli, "atomic_write_text", written)
    cfg = prepare_folds(tmp_path, learners=["svc", "sk_et"], n_seeds=2)
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    events.clear()
    assert main(["train", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
    assert [kind for kind, _ in events] == ["fit", "write"] * 4
    assert [name for _, name in events[1::2]] == [
        "together_svc_s11", "together_svc_s12", "together_sk_et_s11", "together_sk_et_s12"
    ]


def test_model_files_do_not_depend_on_jobs(tmp_path):
    cfg = prepare_folds(tmp_path, learners=["xgb_binary", "sk_et", "svc"], n_seeds=2,
                        modes=["together", "split"])
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK
    models = {}
    for jobs in ("1", "2"):
        assert main(["train", "--config", str(cfg), "--jobs", jobs]) == EXIT_OK
        models[jobs] = _files(tmp_path / "out", "models")
    assert len(models["1"]) == 12
    assert models["2"] == models["1"]


def _leave_marker(item):
    directory, i = item
    (directory / f"task_{i}").write_text("")
    time.sleep(0.05)
    return i


def test_a_failed_write_stops_the_fits_not_yet_started(tmp_path):
    # the consumer fails at the first result, as a failed model write does;
    # closing the map cancels what the pool has not started
    from shearwater import cli

    results = cli._parallel_map(_leave_marker, [(tmp_path, i) for i in range(20)], 2, {})
    with pytest.raises(PipelineError, match="cannot write"):
        for _ in results:
            raise PipelineError("cannot write")
    del results  # its last reference: the map is closed here and its pool shut down
    assert 1 <= len(list(tmp_path.glob("task_*"))) <= 10


def test_a_train_stopped_part_way_leaves_earlier_models_and_predict_names_the_first_stale(
        tmp_path, capsys, monkeypatch):
    from shearwater import cli

    cfg = prepare_folds(tmp_path, learners=["svc"], n_seeds=3)
    for command in ("synth --role test", "extract", "cv", "train"):
        assert main(command.split() + ["--config", str(cfg)]) == EXIT_OK
    earlier = _files(tmp_path / "out", "models")
    params = {"default": {"n_rounds": 8, "max_depth": 2, "n_trees": 4, "svm_epochs": 9}}
    cfg = write_config(tmp_path, learners=["svc"], n_seeds=3, params=params)  # new fingerprints
    assert main(["cv", "--config", str(cfg)]) == EXIT_OK

    fit, calls = cli.fit_final_model, []

    def failing_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise PipelineError("fit failed")
        return fit(*args)

    monkeypatch.setattr(cli, "fit_final_model", failing_second)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    assert "fit failed" in capsys.readouterr().err
    assert len(calls) == 2  # no fit after the failed one

    # the model fitted before the failure is the new one; the rest are the earlier run's
    tuned = json.loads((tmp_path / "out" / "cv_thresholds.json").read_text())
    models = _files(tmp_path / "out", "models")
    assert json.loads(models["together_svc_s11.json"])["fingerprint"] == (
        tuned["together_svc#s11"]["fingerprint"]
    )
    assert models["together_svc_s11.json"] != earlier["together_svc_s11.json"]
    for name in ("together_svc_s12.json", "together_svc_s13.json"):
        assert models[name] == earlier[name]

    assert main(["predict", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "together_svc_s12.json" in err
    assert "re-run train" in err


@pytest.mark.parametrize("learners, binnings", [(["svc", "sk_et"], 0), (["svc", "sk_rf"], 2)])
def test_cv_and_train_bin_only_for_learners_that_read_bins(tmp_path, monkeypatch, learners,
                                                           binnings):
    from shearwater import boost, evalcv

    calls = []
    for module in (evalcv, boost):
        def counted(*args, build_bins=module.build_bins):
            calls.append(args)
            return build_bins(*args)

        monkeypatch.setattr(module, "build_bins", counted)
    cfg = prepare_folds(tmp_path, modes=["together", "split"], learners=learners)
    for command in ("cv", "train"):
        calls.clear()
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        assert len(calls) == binnings  # one shared binning per mode


# --- damaged input: not UTF-8, and the exit-code property ---------------------

FINISHED_CONFIG = {
    "modes": ["together", "split"],
    "learners": ["svc", "sk_et"],
    "k_folds": 3,
    "synth": {"n_birds": 12, "seed": 5, "trip_length_min": 20, "trip_length_max": 30},
}
DOWNSTREAM = ["extract", "folds", "cv", "train", "predict", "ensemble", "evaluate"]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A tiny finished run, copied by each test that damages one of its files."""
    root = tmp_path_factory.mktemp("finished_run")
    _run_chain(root, ["synth", "synth --role test", *DOWNSTREAM[:-1]], **FINISHED_CONFIG)
    return root


def _copy_run(run, tmp_path):
    """A copy of ``run`` in ``tmp_path``, its config pointing at the copy."""
    shutil.copytree(run, tmp_path, dirs_exist_ok=True)
    return write_config(tmp_path, **FINISHED_CONFIG)


def test_extract_without_a_test_corpus_removes_the_old_test_matrices(finished_run, tmp_path,
                                                                    capsys):
    # they were built with the previous training thresholds, from birds of
    # a corpus that is gone
    cfg = _copy_run(finished_run, tmp_path)
    shutil.rmtree(tmp_path / "test")
    (tmp_path / "test_labels.csv").unlink()
    assert main(["extract", "--config", str(cfg)]) == EXIT_OK
    assert not list((tmp_path / "out" / "features").glob("test_*"))
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg)]) == EXIT_DATA
    assert "test matrix not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, relpath, output",
    [
        ("evaluate", "test_labels.csv", None),
        ("cv", "out/folds.csv", "out/cv_summary.csv"),
        ("cv", "out/features/train_split.csv", "out/cv_summary.csv"),
        ("extract", "train/bird_0003.csv", "out/features/train_split.csv"),
        ("folds", "config.json", "out/folds.csv"),
    ],
)
def test_a_leading_byte_order_mark_is_read_as_no_mark(finished_run, tmp_path, capsys, command,
                                                      relpath, output):
    cfg = _copy_run(finished_run, tmp_path)
    if command == "evaluate":
        argv = ["evaluate", "--predictions", str(tmp_path / "out" / "ensemble.csv"),
                "--truth", str(tmp_path / relpath)]
    else:
        argv = [command, "--config", str(cfg)]

    def run():
        capsys.readouterr()
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        return capsys.readouterr().out, output and (tmp_path / output).read_bytes()

    unmarked = run()
    path = tmp_path / relpath
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run() == unmarked


@pytest.mark.parametrize(
    "command, relpath",
    [
        ("folds", "train_labels.csv"),
        ("extract", "train_labels.csv"),
        ("extract", "train/bird_0003.csv"),
        ("extract", "test/bird_0003.csv"),
        ("cv", "out/features/train_together.csv"),
        ("cv", "out/folds.csv"),
        ("train", "out/cv_thresholds.json"),
        ("predict", "out/features/test_together.csv"),
        ("predict", "out/models/together_svc_s11.json"),
        ("ensemble", "out/predictions/together_svc_s11.csv"),
        ("evaluate", "out/ensemble.csv"),
        ("evaluate", "test_labels.csv"),
    ],
)
def test_input_that_is_not_utf8_names_the_file_and_line(finished_run, tmp_path, capsys, command,
                                                          relpath):
    cfg = _copy_run(finished_run, tmp_path)
    path = tmp_path / relpath
    data = path.read_bytes()
    path.write_bytes(data + b"\xff")
    if command == "evaluate":
        argv = ["evaluate", "--predictions", str(tmp_path / "out" / "ensemble.csv"),
                "--truth", str(tmp_path / "test_labels.csv")]
    else:
        argv = [command, "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    line = data.count(b"\n") + 1  # the byte ends the file
    assert f"{path}: " in err
    assert f"line {line}: byte 0xff is not UTF-8 text" in err


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"\xff")
    assert main(["folds", "--config", str(cfg)]) == EXIT_USAGE
    assert f"config {cfg}: line 1: byte 0xff" in capsys.readouterr().err


# each artifact of a finished run, and the first command that reads it
ARTIFACTS = {
    "train/bird_0004.csv": "extract",
    "test/bird_0007.csv": "extract",
    "train_labels.csv": "extract",
    "out/features/train_split.csv": "cv",
    "out/features/test_together.csv": "predict",
    "out/folds.csv": "cv",
    "out/cv_thresholds.json": "train",
    "out/models/split_sk_et_s11.json": "predict",
    "out/predictions/together_svc_s11.csv": "ensemble",
}


def _damage(data: bytes, how: str, at: int, byte: int) -> bytes:
    if how == "empty":
        return b""
    if how == "halve":
        return data[: len(data) // 2]
    if how == "byte":
        i = at % max(len(data), 1)
        return data[:i] + bytes([byte]) + data[i + 1:]
    lines = data.splitlines(keepends=True)
    i = at % max(len(lines), 1)
    if how == "drop":
        return b"".join(lines[:i] + lines[i + 1:])
    return b"".join(lines[: i + 1] + lines[i:])  # repeat


@settings(max_examples=100, deadline=None)
@given(
    artifact=st.sampled_from(sorted(ARTIFACTS)),
    how=st.sampled_from(["empty", "halve", "byte", "drop", "repeat", "directory"]),
    at=st.integers(0, 10**6),
    byte=st.just(0xFF) | st.integers(0, 255),
)
def test_a_damaged_artifact_is_exit_0_or_2_downstream(finished_run, artifact, how, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = _copy_run(finished_run, root)
        path = root / artifact
        if how == "directory":  # an empty directory of the same name
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(_damage(path.read_bytes(), how, at, byte))
        codes = {}
        for command in DOWNSTREAM[DOWNSTREAM.index(ARTIFACTS[artifact]):]:
            if command == "evaluate":
                predictions = path if artifact.startswith("out/predictions") else (
                    root / "out" / "ensemble.csv")
                argv = ["evaluate", "--predictions", str(predictions),
                        "--truth", str(root / "test_labels.csv")]
            else:
                argv = [command, "--config", str(cfg)]
            codes[command] = main(argv)
        assert set(codes.values()) <= {EXIT_OK, EXIT_DATA}, codes


@pytest.mark.parametrize(
    "relpath, replacement, command, code, named",
    [*((artifact, "directory", command, EXIT_DATA, artifact)
       for artifact, command in sorted(ARTIFACTS.items())),
     ("config.json", "directory", "folds", EXIT_USAGE, "config.json"),
     ("out", "file", "folds", EXIT_DATA, "out/folds.csv"),
     ("out/ensemble.csv", "directory", "ensemble", EXIT_DATA, "out/ensemble.csv")],
)
def test_a_path_that_cannot_be_read_or_written_is_named(finished_run, tmp_path, capsys, relpath,
                                                        replacement, command, code, named):
    # a data error (a usage error for the config) naming the path, never
    # the temporary file of a write
    cfg = _copy_run(finished_run, tmp_path)
    path = tmp_path / relpath
    if replacement == "directory":
        path.unlink()
        path.mkdir()
    else:
        shutil.rmtree(path)
        path.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert f"{tmp_path / named}: " in err
    assert f"{tmp_path / named}.tmp" not in err
    assert path.is_dir() == (replacement == "directory")
    assert not (any(path.iterdir()) if path.is_dir() else path.read_text(encoding="utf-8"))


def _extract_is_refused_before_any_write(finished_run, tmp_path, capsys, paths, named, message):
    """``extract`` with each of ``paths`` set to a name in ``tmp_path``
    (``empty`` a directory of no trajectory file, ``no_birds.csv`` a labels
    file of no bird) exits 2 with ``message`` naming ``named``, and leaves
    every matrix as it was."""
    cfg = _copy_run(finished_run, tmp_path)
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("no track here\n", encoding="utf-8")
    (tmp_path / "no_birds.csv").write_text("bird_id,label\n", encoding="utf-8")
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc["paths"].update({key: str(tmp_path / name) for key, name in paths.items()})
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    features = tmp_path / "out" / "features"
    for path in features.iterdir():
        path.write_text("stale\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    assert f"{tmp_path / named}: {message}" in capsys.readouterr().err
    assert len(list(features.iterdir())) == 8
    assert {path.read_text(encoding="utf-8") for path in features.iterdir()} == {"stale\n"}


def test_a_test_dir_that_names_a_file_is_refused_before_any_write(finished_run, tmp_path,
                                                                   capsys):
    # a file is not "no test corpus": no test matrix is removed
    _extract_is_refused_before_any_write(finished_run, tmp_path, capsys,
                                         {"test_dir": "test_labels.csv"}, "test_labels.csv",
                                         "not a directory")


@pytest.mark.parametrize(
    "paths",
    [{"test_dir": "empty"}, {"train_dir": "empty", "train_labels": "no_birds.csv"}],
    ids=["test", "train"],
)
def test_a_corpus_dir_with_no_trajectory_file_is_refused_before_any_write(finished_run, tmp_path,
                                                                          capsys, paths):
    # it exited 3 with a traceback, reshaping a matrix of no birds
    _extract_is_refused_before_any_write(finished_run, tmp_path, capsys, paths, "empty",
                                         "no trajectory files (*.csv)")


def test_a_stale_test_matrix_that_cannot_be_removed_is_refused_before_any_write(
    finished_run, tmp_path, capsys
):
    # it exited 3 (IsADirectoryError) after the training matrices were rewritten
    cfg = _copy_run(finished_run, tmp_path)
    shutil.rmtree(tmp_path / "test")
    features = tmp_path / "out" / "features"
    for path in features.iterdir():
        path.write_text("stale\n", encoding="utf-8")
    (features / "test_together.csv").unlink()
    (features / "test_together.csv").mkdir()
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{features / 'test_together.csv'}: cannot remove" in err
    assert "Traceback" not in err
    kept = [path for path in features.iterdir() if not path.name.startswith("test_")]
    assert len(kept) == 6
    assert {path.read_text(encoding="utf-8") for path in kept} == {"stale\n"}


def test_synth_creates_the_directory_of_its_labels_file(tmp_path):
    # the one writer creates missing parent directories
    cfg = write_config(tmp_path)
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc["paths"]["train_labels"] = str(tmp_path / "labels" / "train_labels.csv")
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    labels = (tmp_path / "labels" / "train_labels.csv").read_text(encoding="utf-8")
    assert len(labels.splitlines()) == 1 + 24
    assert main(["folds", "--config", str(cfg)]) == EXIT_OK


# --- encodings: every file is written as UTF-8, and every file name is UTF-8 ---

def test_every_command_runs_with_the_locale_encoding_warning_as_an_error(tmp_path):
    # a writer that left the encoding to the locale warns here, and exits 3
    import os
    import subprocess
    import sys

    cfg = write_config(tmp_path, **{**FINISHED_CONFIG, "learners": ["svc"]})
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for command in ["synth", "synth --role test", *DOWNSTREAM[:-1]]:
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "shearwater.cli", *command.split(), "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == EXIT_OK, (command, done.stderr)


def test_a_trajectory_file_name_that_is_not_utf8_is_refused_before_any_write(finished_run,
                                                                             tmp_path, capsys):
    import os

    cfg = _copy_run(finished_run, tmp_path)
    name = os.fsdecode(b"bird_\xff3.csv")
    shutil.copy(tmp_path / "test" / "bird_0003.csv", tmp_path / "test" / name)
    features = tmp_path / "out" / "features"
    for path in features.iterdir():
        path.write_text("stale\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    assert f"{tmp_path / 'test'}: file name {name!r} is not UTF-8" in capsys.readouterr().err
    assert {path.read_text(encoding="utf-8") for path in features.iterdir()} == {"stale\n"}
