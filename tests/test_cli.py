import json

import pytest

from shearwater.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RunConfig, main


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


def test_default_config_enumerates_180_jobs(tmp_path):
    cfg_path = write_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    del doc["modes"], doc["learners"], doc["n_seeds"]
    cfg_path.write_text(json.dumps(doc))
    cfg = RunConfig.from_file(cfg_path)
    settings = cfg.settings()
    assert len(settings) == 18  # 9 learners x 2 modes
    assert len([(s, seed) for s in settings for seed in cfg.seeds()]) == 180
    assert len({s.name for s in settings}) == 18


def test_missing_config_is_usage_error(tmp_path):
    assert main(["folds", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_bad_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["folds", "--config", str(path)]) == EXIT_USAGE


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
    ],
)
def test_bad_run_setting_is_usage_error(tmp_path, capsys, command, overrides, flags, field):
    prepare_folds(tmp_path, learners=["svc"])
    cfg = write_config(tmp_path, learners=["svc"], **overrides)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *flags]) == EXIT_USAGE
    assert field in capsys.readouterr().err


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
    ],
    ids=["missing", "truncated", "hyperparameter", "folds-seed", "entry-deleted"],
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


def test_predict_names_a_missing_model(tmp_path, capsys):
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["svc"])
    cfg = write_config(tmp_path, learners=["svc"], n_seeds=2)
    assert main(["predict", "--config", str(cfg)]) == EXIT_DATA
    assert "together_svc_s12.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["folds", "extract", "ensemble", "evaluate"])
def test_bad_label_names_the_file_and_line(tmp_path, capsys, command):
    cfg = prepare_folds(tmp_path, learners=["svc"])
    predictions = tmp_path / "out" / "predictions"
    predictions.mkdir()
    (predictions / "together_svc_s11.csv").write_text("bird_id,label\nb0,1\nb1,0\n")
    labels = tmp_path / "train_labels.csv"
    _set_field(labels, 2, 1, "x")
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
    path = sorted((tmp_path / "train").glob("*.csv"))[0]
    _set_field(path, 2, field, value)
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert path.name in err
    assert "line 3" in err


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


def _set_tree_feature(feature):
    def edit(doc):
        root = doc["trees"][0]["root"]
        assert "feature" in root, "the first tree is a single leaf"
        root["feature"] = feature
    return edit


def _cut_svm_weights(doc):
    doc["svm"]["weights"] = doc["svm"]["weights"][:5]


def _drop_trees(doc):
    del doc["trees"]


@pytest.mark.parametrize(
    "model_name, edit",
    [
        ("together_sk_rf_s11.json", _set_tree_feature(100000)),
        ("together_sk_rf_s11.json", _set_tree_feature(-1)),
        ("together_svc_s11.json", _cut_svm_weights),
        ("together_sk_rf_s11.json", _drop_trees),
    ],
    ids=["feature-too-large", "feature-negative", "svm-weights-cut", "no-trees"],
)
def test_predict_refuses_a_model_that_does_not_fit_its_schema(
    tmp_path, capsys, model_name, edit
):
    _run_chain(tmp_path, ["synth", "synth --role test", "extract", "folds", "cv", "train"],
               learners=["sk_rf", "svc"])
    model = tmp_path / "out" / "models" / model_name
    doc = json.loads(model.read_text())
    edit(doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    assert model_name in capsys.readouterr().err
