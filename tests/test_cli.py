"""CLI subcommands, config validation, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsched import cli
from postsched.cli import RunConfig, main, parse_config
from postsched.errors import ConfigError

MONDAY = 1420416000


def run(args):
    return main([str(a) for a in args])


def write_config(path, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def synth_config(tmp_path, **extra):
    out = tmp_path / "run"
    kv = dict(
        out=out,
        seed=5,
        synth_authors=3,
        synth_followers=4,
        synth_span_days=21,
        synth_follower_peak_rate=1.0,
        synth_follower_base_rate=0.002,
        synth_author_base_rate=0.4,
        synth_reaction_probability=0.9,
        derivation_days=14,
        evaluation_days=7,
        ranks=4,
        sample_budget=200,
    )
    kv.update(extra)
    return write_config(tmp_path / "base.config", **kv), out


def digest_dir(out):
    digests = {}
    for p in sorted(Path(out).glob("*")):
        if p.is_file():
            digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c", posts="x.tsv", bogus_key=1)
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(cfg)

    def test_bad_type_names_field(self, tmp_path):
        cfg = write_config(tmp_path / "c", ranks="many")
        with pytest.raises(ConfigError, match="ranks"):
            parse_config(cfg)

    def test_iso_dates_accepted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c",
                                        derivation_start="2015-01-05"))
        assert cfg.derivation_start == MONDAY

    def test_overlapping_windows_name_both_fields(self, tmp_path):
        cfg = write_config(tmp_path / "c",
                           derivation_start=MONDAY, derivation_days=63,
                           evaluation_start=MONDAY + 86400,
                           evaluation_days=7)
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert "derivation_start" in str(exc.value)
        assert "evaluation_start" in str(exc.value)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c"
        p.write_text("# comment\n\nseed=9\n", encoding="utf-8")
        assert parse_config(p).seed == 9

    def test_evaluation_defaults_to_adjacent_window(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c",
                                        derivation_start=MONDAY,
                                        derivation_days=63))
        assert cfg.evaluation_window.start == MONDAY + 63 * 86400
        assert not cfg.evaluation_window.overlaps(cfg.derivation_window)

    @pytest.mark.parametrize("build", [
        lambda: RunConfig(seed=-1),
        lambda: replace(RunConfig(), ranks=0),
    ])
    def test_building_a_config_checks_its_rules(self, build):
        with pytest.raises(ConfigError, match=r"^(seed|ranks): "):
            build()

    @settings(max_examples=1000)
    @given(key=st.sampled_from([f.name for f in fields(RunConfig)]),
           text=st.one_of(
               # Single-line: read_text turns a carriage return into a newline.
               st.text(st.characters(exclude_categories=("Cs",),
                                     exclude_characters="\r\n")),
               st.integers().map(str), st.floats().map(str)))
    def test_any_value_parses_or_names_its_key(self, tmp_path_factory, key,
                                               text):
        path = tmp_path_factory.getbasetemp() / "one_key.config"
        path.write_text(f"{key}={text}\n", encoding="utf-8")
        try:
            parse_config(path)
        except ConfigError as exc:
            # A rule that spans keys names each of them: "a/b: ...".
            assert key in str(exc).partition(": ")[0].split("/"), str(exc)


class TestExitCodes:
    def test_bad_config_returns_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c", network="ZZ")
        assert run(["ptr", "--config", cfg]) == 1
        assert "network" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("alpha", "nan"),
        ("alpha", "-50"),
        ("beta", "inf"),
        ("metric_bin_width", "nan"),
        ("max_malformed_frac", "-inf"),
        ("delay_lag_s", "0"),
        ("delay_window_s", "0"),
        ("buckets_per_week", "168"),    # with the default 900 s lag
        ("buckets_per_week", "1000"),   # does not divide a week
        ("metric_bin_width", "0"),
        ("metric_bin_width", "0.07"),   # does not divide [-1, 1]
        ("metric_bin_width", "-0.05"),
        ("metric_bin_width", "1e-9"),   # 2e9 bins
        ("seed", "-1"),
        ("ranks", "673"),               # more ranks than buckets
        ("ranks", "100000000000000000000"),
        ("sample_budget", "1000001"),
        ("max_malformed_frac", "-0.5"),
        ("max_malformed_frac", "7"),
        ("delay_window_s", "605700"),   # a multiple of the lag, past a week
        ("delay_window_s", "900000000000000000000"),
        ("synth_kernel", "bogus"),
    ])
    def test_config_hole_returns_one_naming_key(self, tmp_path, capsys,
                                                key, value):
        cfg = write_config(tmp_path / "c", out=tmp_path / "o", **{key: value})
        assert run(["all", "--config", cfg]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["4:x", "5:2", "1:2:3", "3:", "", "-1"])
    def test_bad_synth_followers_returns_one(self, tmp_path, capsys, value):
        cfg, out = synth_config(tmp_path, synth_followers=value)
        assert run(["synth", "--config", cfg]) == 1
        assert "synth_followers" in capsys.readouterr().err
        assert not (out / "posts.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("synth_authors", "0"),
        ("synth_span_days", "0"),
        ("synth_reaction_probability", "5"),
        ("synth_follower_base_rate", "-1"),
        ("synth_author_peak_rate", "-1"),
        ("synth_author_base_rate", "1e20"),   # rates above one post per second
        ("synth_author_peak_rate", "1e20"),
        ("synth_follower_base_rate", "1e20"),
        ("synth_follower_peak_rate", "1e19"),
        ("synth_start", "-99999999999999999999"),
        ("synth_start", "9223372036852992000"),   # a Monday; the span overflows
        ("synth_peaks_per_star", "481"),   # the pool has 480 weekday buckets
        ("synth_kernel", "delta:x"),
        ("synth_kernel", "geometric:abc"),
        ("synth_kernel", "uniform:1.5"),
    ])
    def test_bad_synth_value_returns_one_naming_key(self, tmp_path, capsys,
                                                    key, value):
        cfg, out = synth_config(tmp_path, **{key: value})
        assert run(["synth", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert "Traceback" not in err
        assert not (out / "posts.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("synth_span_days", "100000000"),
        ("synth_authors", "100000000000"),
        ("synth_followers", "100000000000000000000"),
    ])
    def test_synth_volume_cap_returns_one_naming_keys(self, tmp_path, capsys,
                                                      key, value):
        cfg, out = synth_config(tmp_path, **{key: value})
        assert run(["synth", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synth_authors/synth_followers/"
                              "synth_span_days: ")
        assert "Traceback" not in err
        assert not (out / "posts.tsv").exists()

    @pytest.mark.parametrize("span, derivation", [(63, 63), (20, 63), (14, 14)])
    def test_synth_span_without_evaluation_day_returns_one(self, tmp_path, capsys,
                                                           span, derivation):
        # A span that the derivation window fills leaves no evaluation day;
        # the written synth.config would make `all` exit 2.
        cfg = write_config(tmp_path / "c", synth_authors=3, synth_followers=4,
                           synth_span_days=span, derivation_days=derivation,
                           out=tmp_path / "run")
        assert run(["synth", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synth_span_days/derivation_days: ")
        assert not (tmp_path / "run" / "posts.tsv").exists()

    def test_synth_span_with_one_evaluation_day_is_written(self, tmp_path):
        cfg, out = synth_config(tmp_path, synth_span_days=15, derivation_days=14)
        assert run(["synth", "--config", cfg]) == 0
        written = parse_config(out / "synth.config")
        assert (written.derivation_days, written.evaluation_days) == (14, 1)
        assert written.evaluation_start == written.derivation_start + 14 * 86400

    def test_synth_peaks_per_star_up_to_pool_size(self, tmp_path):
        cfg, _ = synth_config(tmp_path, synth_peaks_per_star=480)
        assert run(["synth", "--config", cfg]) == 0

    @pytest.mark.parametrize("value", ["0", "7", "2:5", "3:3"])
    def test_synth_followers_grammar_accepted(self, tmp_path, value):
        cfg, _ = synth_config(tmp_path, synth_followers=value)
        assert parse_config(cfg).synth_followers == value

    def test_non_utf8_input_returns_two_naming_file(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        with open(out / "posts.tsv", "ab") as fh:
            fh.write(b"TW\ta00000\tbad\xff\t1420416000\n")
        capsys.readouterr()
        assert run(["ptr", "--config", out / "synth.config"]) == 2
        assert "posts.tsv" in capsys.readouterr().err

    def test_non_utf8_config_returns_one_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.config"
        cfg.write_bytes(b"seed=1\nnetwork=T\xffW\n")
        assert run(["ptr", "--config", cfg]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_missing_input_file_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c", posts="nope.tsv",
                           reactions="nope2.tsv", out=tmp_path / "o")
        assert run(["ptr", "--config", cfg]) == 1
        assert "posts" in capsys.readouterr().err

    def test_missing_upstream_artifact_returns_two(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["evaluate", "--config", out / "synth.config"]) == 2
        assert "schedule" in capsys.readouterr().err

    @staticmethod
    def _negate_one(probs):
        # Moves mass so the row still sums to 1 but one entry is negative.
        values = [float(x) for x in probs]
        i = next(i for i, v in enumerate(values) if v > 0)
        values[i], values[i - 1] = -values[i], values[i - 1] + 2 * values[i]
        return [repr(v) for v in values]

    @pytest.mark.parametrize("case", [
        "cut_off", "not_a_number", "short_row", "fields", "negative", "sum",
        "repeated"])
    def test_malformed_schedules_return_two_naming_line(self, tmp_path, capsys,
                                                        case):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["schedule", "--config", out / "synth.config"]) == 0
        path = out / "schedules.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        user, prov, probs = lines[1].split("\t")
        probs = probs.split(",")
        if case == "cut_off":  # the file ends inside the second row
            lines = lines[:1] + [lines[1][:lines[1].rindex(",") + 1]]
        elif case == "not_a_number":
            lines[1] = "\t".join([user, prov, ",".join(["x"] + probs[1:])])
        elif case == "short_row":
            lines[1] = "\t".join([user, prov, ",".join(probs[:-1])])
        elif case == "fields":
            lines[1] = user + "\t" + prov
        elif case == "negative":
            lines[1] = "\t".join([user, prov, ",".join(self._negate_one(probs))])
        elif case == "repeated":  # the first row's user, scored twice
            assert lines[0].split("\t")[1] == prov
            lines[1] = lines[0]
        else:
            doubled = [repr(2 * float(x)) for x in probs]
            lines[1] = "\t".join([user, prov, ",".join(doubled)])
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        for sub in ("evaluate", "analyze"):
            assert run([sub, "--config", out / "synth.config"]) == 2
            assert "schedules.tsv:2:" in capsys.readouterr().err

    def test_offset_off_the_bucket_grid_returns_two_naming_user(self, tmp_path,
                                                                capsys):
        # 330 minutes (India) is not a whole number of 60-minute buckets
        # from the UTC cohort of the other users with a schedule.
        cfg, out = synth_config(tmp_path, buckets_per_week=168,
                                delay_lag_s=3600)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["schedule", "--config", out / "synth.config"]) == 0
        s1 = [line.split("\t")[0] for line in
              (out / "schedules.tsv").read_text(encoding="utf-8").splitlines()
              if line.split("\t")[1] == "S1"]
        assert len(s1) >= 2
        users = out / "users.tsv"
        users.write_text(users.read_text(encoding="utf-8").replace(
            f"{s1[-1]}\t0\t", f"{s1[-1]}\t330\t"), encoding="utf-8")
        capsys.readouterr()
        assert run(["all", "--config", out / "synth.config"]) == 2
        err = capsys.readouterr().err
        assert s1[-1] in err and "330" in err
        assert not (out / "cohort_series.csv").exists()

    def test_repeated_user_returns_two_naming_user(self, tmp_path, capsys):
        # A one-member "Solo" city, listed twice, must not pass as a cohort
        # of two whose sampled pairs compare the user with itself.
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        users = out / "users.tsv"
        first, rest = users.read_text(encoding="utf-8").split("\n", 1)
        user, tz, _, network = first.split("\t")
        solo = "\t".join([user, tz, "Solo", network])
        users.write_text(f"{solo}\n{solo}\n{rest}", encoding="utf-8")
        capsys.readouterr()
        assert run(["all", "--config", out / "synth.config"]) == 2
        err = capsys.readouterr().err
        assert "users.tsv" in err and repr(user) in err
        assert not (out / "cohort_series.csv").exists()

    def test_empty_evaluation_window_diagnostic(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["schedule", "--config", out / "synth.config"]) == 0
        # An evaluation window far beyond the synthetic span has no posts.
        kv = {line.split("=")[0]: line.split("=", 1)[1]
              for line in (out / "synth.config").read_text().splitlines()}
        kv["evaluation_start"] = MONDAY + 10 * 365 * 86400
        far = write_config(tmp_path / "far.config", **kv)
        assert run(["evaluate", "--config", far]) == 2
        assert "evaluation" in capsys.readouterr().err
        assert not (out / "gain_by_rank.csv").exists()

    def test_negative_seed_flag_returns_one(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: seed: ")
        assert not (out / "posts.tsv").exists()

    def test_nul_in_out_returns_one(self, tmp_path, capsys):
        cfg, _ = synth_config(tmp_path, out="run\0dir")
        assert run(["synth", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error: out: ")


class TestSynthStage:
    def test_writes_canonical_files_and_config(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        for name in ("posts.tsv", "reactions.tsv", "edges.tsv", "users.tsv",
                     "truth.tsv", "synth.config", "manifest.json"):
            assert (out / name).exists(), name

    def test_delta_kernel_ptr_roundtrip(self, tmp_path):
        cfg, out = synth_config(tmp_path, synth_kernel="delta:0")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["ptr", "--config", out / "synth.config"]) == 0
        lines = (out / "delay_kernel.tsv").read_text().strip().split("\n")
        rows = [l.split("\t") for l in lines if not l.startswith("#")]
        assert float(rows[0][1]) == 1.0
        assert all(float(r[1]) == 0.0 for r in rows[1:])


    def test_config_carries_every_non_synth_key(self, tmp_path):
        cfg, out = synth_config(tmp_path, min_cohort=5, metric_bin_width=0.5,
                                max_malformed_frac=0.2, bidirectional="true",
                                alpha=0.5, day_filter="all")
        assert run(["synth", "--config", cfg]) == 0
        given = parse_config(cfg)
        start = given.synth_start
        want = replace(given, **{k: str(out / f"{k}.tsv") for k in cli.INPUT_KEYS},
                       derivation_start=start, derivation_days=14,
                       evaluation_start=start + 14 * 86400, evaluation_days=7,
                       out=str(out))
        written = parse_config(out / "synth.config")
        for f in fields(RunConfig):
            if not f.metadata["feeds"]:
                assert getattr(written, f.name) == getattr(want, f.name), f.name


class TestAnalyzeStage:
    N = 168  # hourly buckets

    def analyze(self, tmp_path, users, s1, **extra):
        """Cohort series of `analyze` over ``users`` lines and one-hot S1
        rows, ``{user: bucket}``, as {cohort: {bucket: value}}."""
        out = tmp_path / "run"
        out.mkdir()
        (tmp_path / "users.tsv").write_text("".join(f"{u}\n" for u in users),
                                            encoding="utf-8")
        rows = []
        for user, bucket in s1.items():
            probs = ["0"] * self.N
            probs[bucket] = "1"
            rows.append(f"{user}\tS1\t{','.join(probs)}\n")
        (out / "schedules.tsv").write_text("".join(rows), encoding="utf-8")
        cfg = write_config(tmp_path / "c", users=tmp_path / "users.tsv", out=out,
                           buckets_per_week=self.N, delay_lag_s=3600,
                           sample_budget=50, **extra)
        assert run(["analyze", "--config", cfg]) == 0
        series: dict[str, dict[int, float]] = {}
        with open(out / "cohort_series.csv", newline="", encoding="utf-8") as fh:
            for label, bucket, value in list(csv.reader(fh))[1:]:
                if float(value):
                    series.setdefault(label, {})[int(bucket)] = float(value)
        return series

    def test_cohort_tz_tie_goes_to_first_member_by_id(self, tmp_path):
        # One member at UTC+1 and one at UTC, listed in the other order: the
        # cohort sits at the offset of "a", the lower id, so b's local
        # 10:00 UTC lands an hour later there.
        users = ["b\t0\tOslo\tTW", "a\t60\tOslo\tTW"]
        series = self.analyze(tmp_path, users, {"a": 10, "b": 10})
        assert series["Oslo"] == series["ALL"] == {10: 0.5, 11: 0.5}

    def test_city_below_min_cohort_gets_no_cohort(self, tmp_path):
        # "Tiny" has two members but only one with an S1 row.
        users = ["a\t0\tTiny\tTW", "b\t0\tTiny\tTW", "c\t0\tPair\tTW",
                 "d\t0\tPair\tTW"]
        series = self.analyze(tmp_path, users, {"a": 1, "c": 2, "d": 3},
                              min_cohort=2)
        assert set(series) == {"ALL", "Pair"}
        assert series["Pair"] == {2: 0.5, 3: 0.5}

    def test_labels_with_commas_and_quotes_are_quoted(self, tmp_path):
        users = ["a\t0\tNew York, NY\tTW", "b\t0\tNew York, NY\tTW",
                 'c\t0\tSay "hi"\tTW', 'd\t0\tSay "hi"\tTW']
        series = self.analyze(tmp_path, users, {"a": 1, "b": 2, "c": 3, "d": 4})
        assert series["New York, NY"] == {1: 0.5, 2: 0.5}
        assert series['Say "hi"'] == {3: 0.5, 4: 0.5}
        out = tmp_path / "run"
        for name, n_fields in (("cohort_series.csv", 3),
                               ("metric_distributions.csv", 6)):
            with open(out / name, newline="", encoding="utf-8") as fh:
                assert {len(row) for row in csv.reader(fh)} == {n_fields}
        text = (out / "metric_distributions.csv").read_text(encoding="utf-8")
        assert '\n"New York, NY","Say ""hi""",cosine,' in text

    def test_city_named_all_returns_two_naming_it(self, tmp_path, capsys):
        # Three of the six authors in a city named ALL would replace the
        # cohort of every user with theirs.
        cfg, out = synth_config(tmp_path, synth_authors=6, synth_followers=5,
                                synth_span_days=70, derivation_days=63)
        assert run(["synth", "--config", cfg]) == 0
        users = out / "users.tsv"
        text = users.read_text(encoding="utf-8")
        for author in ("a00000", "a00001", "a00002"):
            text = text.replace(f"{author}\t0\t-\t", f"{author}\t0\tALL\t")
        users.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["all", "--config", out / "synth.config"]) == 2
        err = capsys.readouterr().err
        assert "users.tsv" in err and "'ALL'" in err and "'a00000'" in err
        assert not (out / "cohort_series.csv").exists()

    def test_analyze_ignores_s1_row_order(self, tmp_path):
        # Cities and offsets that shift members, so that the sum order shows.
        cfg, out = synth_config(tmp_path, synth_authors=6, synth_followers=5,
                                synth_span_days=70, derivation_days=63)
        assert run(["synth", "--config", cfg]) == 0
        users = out / "users.tsv"
        lines = users.read_text(encoding="utf-8").splitlines()
        for i, (tz, city) in enumerate([(0, "Oslo"), (-300, "Lima"),
                                        (60, "Oslo"), (0, "Lima"),
                                        (-300, "Lima"), (60, "Oslo")]):
            user, _, _, network = lines[i].split("\t")
            lines[i] = "\t".join([user, str(tz), city, network])
        users.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = out / "synth.config"
        assert run(["schedule", "--config", cfg]) == 0
        assert run(["analyze", "--config", cfg]) == 0
        want = {a: (out / a).read_bytes()
                for a in ("cohort_series.csv", "metric_distributions.csv")}
        assert want["cohort_series.csv"].count(b"\nLima,") == 672
        schedules = out / "schedules.tsv"
        rows = schedules.read_text(encoding="utf-8").splitlines()
        schedules.write_text("\n".join(rows[::-1][1::2] + rows[::-1][::2]) + "\n",
                             encoding="utf-8")
        assert run(["analyze", "--config", cfg]) == 0
        assert {a: (out / a).read_bytes() for a in want} == want


class TestFullChain:
    def test_all_runs_and_is_deterministic(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        for name in ("ingest_report.json", "delay_kernel.tsv",
                     "cumulative_curve.csv", "delay_quantiles.tsv",
                     "schedules.tsv", "baselines.tsv", "recommended.tsv",
                     "ranked_times.tsv", "gain_report.tsv", "gain_by_rank.csv",
                     "cohort_series.csv", "metric_distributions.csv",
                     "manifest.json"):
            assert (out / name).exists(), name
        first = digest_dir(out)
        assert run(["all", "--config", out / "synth.config"]) == 0
        assert digest_dir(out) == first

    def test_manifest_lists_inputs_and_outputs(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "all"
        assert any(p.endswith("posts.tsv") for p in manifest["inputs"])
        assert any(p.endswith("gain_report.tsv") for p in manifest["outputs"])
        assert manifest["parameters"]["seed"] == 5

    def test_rerun_from_manifest_parameters_reproduces_digests(self, tmp_path):
        from postsched.cli import RunConfig, _run

        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        before = digest_dir(out)
        rebuilt = RunConfig(**manifest["parameters"])
        _run("all", rebuilt)
        assert digest_dir(out) == before

    def test_gain_report_shape(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        lines = (out / "gain_by_rank.csv").read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header == "schedule,rank,rg_avg,users,posts"
        schedules = {r.split(",")[0] for r in rows}
        assert {"S1", "S2", "S1w", "S2w", "MFU", "AFD"} <= schedules
        for sched in schedules:
            assert sum(1 for r in rows if r.startswith(sched + ",")) == 4

    def test_inputs_are_parsed_once_per_run(self, tmp_path, monkeypatch):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        calls = Counter()
        for name in ("load_posts", "load_reactions", "join_reactions",
                     "load_graph", "load_users"):
            def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        assert run(["all", "--config", out / "synth.config"]) == 0
        assert calls == {"load_posts": 1, "load_reactions": 1,
                         "join_reactions": 1, "load_graph": 1, "load_users": 1}
        # A single subcommand parses only the files it reads.
        calls.clear()
        assert run(["ptr", "--config", out / "synth.config"]) == 0
        assert calls == {"load_posts": 1, "load_reactions": 1,
                         "join_reactions": 1}

    def test_all_loads_neither_the_generator_nor_numpy_ma(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        code = ("import json, sys\n"
                "from postsched.cli import main\n"
                f"code = main(['all', '--config', {str(out / 'synth.config')!r}])\n"
                "print(json.dumps([code, sorted(sys.modules)]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert "postsched.cli" in modules
        assert "postsched.synth" not in modules
        assert "numpy.ma" not in modules

    def test_cumulative_curve_ends_at_one(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["ptr", "--config", out / "synth.config"]) == 0
        last = (out / "cumulative_curve.csv").read_text().strip().split("\n")[-1]
        assert float(last.split(",")[-1]) == pytest.approx(1.0, abs=1e-9)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        posts_a = (out / "posts.tsv").read_bytes()
        assert run(["synth", "--config", cfg, "--seed", "99"]) == 0
        assert (out / "posts.tsv").read_bytes() != posts_a


ARTIFACTS = ("ingest_report.json", "delay_kernel.tsv", "cumulative_curve.csv",
             "delay_quantiles.tsv", "schedules.tsv", "baselines.tsv",
             "recommended.tsv", "ranked_times.tsv", "gain_report.tsv",
             "gain_by_rank.csv", "cohort_series.csv", "metric_distributions.csv")


def hand_config(tmp_path, b_reacts):
    """A run over four users, where b is in a's audience, c has no audience
    and d is in none. d reacts to c's post in the derivation window and to
    a's in the evaluation window. If ``b_reacts``, b reacts to c's post too,
    which gives user a first-degree schedules but no weighted ones, as a has
    received no reaction from b; else no target has a personalized row."""
    day, hour = 86400, 3600
    posts = [("a", "p1", MONDAY + day + 10 * hour),
             ("c", "p2", MONDAY + 2 * day + 10 * hour),
             ("a", "p3", MONDAY + 15 * day + 10 * hour)]
    reactions = [("p2", "d", posts[1][2] + 600), ("p3", "d", posts[2][2] + 600)]
    if b_reacts:
        reactions.append(("p2", "b", posts[1][2] + 600))
    files = {
        "posts": "".join(f"TW\t{u}\t{p}\t{t}\n" for u, p, t in posts),
        "reactions": "".join(f"TW\t{p}\t{u}\t{t}\n" for p, u, t in reactions),
        "edges": "TW\ta\tb\n",
        "users": "".join(f"{u}\t0\t-\tTW\n" for u in "abcd"),
    }
    for name, text in files.items():
        (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
    return write_config(tmp_path / "hand.config", derivation_start=MONDAY,
                        derivation_days=14, evaluation_days=7, ranks=4,
                        day_filter="all", sample_budget=20,
                        **{k: tmp_path / f"{k}.tsv" for k in files})


class TestHandoff:
    """In `all`, `evaluate` and `analyze` take the tables that `schedule`
    derived instead of re-reading its files; lone stages read the files,
    and both give the same bytes."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        real = cli.pipeline.read_schedules

        def spy(path, n_buckets):
            calls.append(Path(path).name)
            return real(path, n_buckets)
        monkeypatch.setattr(cli.pipeline, "read_schedules", spy)
        return calls

    def lone_and_all(self, cfg, tmp_path):
        lone, chain = tmp_path / "lone", tmp_path / "all"
        for stage in cli.ALL_CHAIN:
            assert run([stage, "--config", cfg, "--out", lone]) == 0, stage
        assert run(["all", "--config", cfg, "--out", chain]) == 0
        return ({a: (lone / a).read_bytes() for a in ARTIFACTS},
                {a: (chain / a).read_bytes() for a in ARTIFACTS})

    def test_lone_stages_give_the_bytes_of_all(self, tmp_path, reads):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        lone, chain = self.lone_and_all(out / "synth.config", tmp_path)
        assert lone == chain
        # The lone stages read the files; `all` reads none.
        assert reads == ["schedules.tsv", "baselines.tsv", "schedules.tsv"]

    def test_kind_without_rows_is_left_out_as_after_a_reread(self, tmp_path,
                                                            reads):
        cfg = hand_config(tmp_path, b_reacts=True)
        lone, chain = self.lone_and_all(cfg, tmp_path)
        assert lone == chain
        kinds = {line.split("\t")[0] for line in
                 chain["gain_report.tsv"].decode().splitlines()}
        assert kinds == {"S1", "S2", "AFD", "MFU"}
        assert reads == ["schedules.tsv", "baselines.tsv", "schedules.tsv"]

    def test_empty_first_degree_table_fails_analyze_either_way(
            self, tmp_path, monkeypatch, capsys, reads):
        cfg = hand_config(tmp_path, b_reacts=False)
        assert run(["schedule", "--config", cfg, "--out", tmp_path / "lone"]) == 0
        assert (tmp_path / "lone" / "schedules.tsv").read_bytes() == b""
        capsys.readouterr()
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "lone"]) == 2
        lone_err = capsys.readouterr().err
        assert "no first-degree schedules found" in lone_err
        assert reads == ["schedules.tsv"]
        monkeypatch.setattr(cli, "ALL_CHAIN", ("schedule", "analyze"))
        assert run(["all", "--config", cfg, "--out", tmp_path / "all"]) == 2
        assert capsys.readouterr().err == lone_err
        assert reads == ["schedules.tsv"]


def test_missing_author_is_nobody(tmp_path):
    """Posts by "-" join their reactions, but "-" gets no schedule and adds
    nothing to the MFU baselines."""
    cfg, out = synth_config(tmp_path)
    assert run(["synth", "--config", cfg]) == 0
    kv = dict(line.split("=", 1)
              for line in (out / "synth.config").read_text().splitlines())
    posts = (out / "posts.tsv").read_text()
    reactions = (out / "reactions.tsv").read_text()
    stamp = MONDAY + 30 * 3600  # in the derivation window
    anonymous = "".join(f"TW\t-\tanon{i}\t{stamp + i}\n" for i in range(40))
    baselines = {}
    for name, extra in (("plain", ""), ("anonymous", anonymous)):
        (tmp_path / f"{name}.tsv").write_text(posts + extra, encoding="utf-8")
        (tmp_path / f"{name}_r.tsv").write_text(
            reactions + f"TW\tanon0\tf00000_000\t{stamp + 600}\n" * bool(extra),
            encoding="utf-8")
        run_cfg = write_config(tmp_path / f"{name}.config", **{
            **kv, "posts": tmp_path / f"{name}.tsv",
            "reactions": tmp_path / f"{name}_r.tsv", "out": tmp_path / name})
        assert run(["all", "--config", run_cfg]) == 0
        for artifact in ("schedules.tsv", "baselines.tsv", "recommended.tsv",
                         "ranked_times.tsv"):
            text = (tmp_path / name / artifact).read_text()
            assert not any(line.startswith("-\t") for line in text.splitlines())
        baselines[name] = [line for line in
                           (tmp_path / name / "baselines.tsv").read_text().splitlines()
                           if line.split("\t")[1] == "MFU"]
    report = json.loads((tmp_path / "anonymous" / "ingest_report.json").read_text())
    assert report["join"]["joined"] == reactions.count("\n") + 1
    assert baselines["anonymous"] == baselines["plain"] != []


# Single-line perturbations of an input line, as functions of its fields and
# of the index of its network field. The id field is the first non-network
# field, and the last field is the timestamp (the network in users.tsv).
def _set(where, value):
    """Replace the field at ``where`` ("net", "id" or "last") by
    ``value(field)``."""
    def apply(fields, net):
        i = {"net": net, "id": 1 if net == 0 else 0, "last": len(fields) - 1}[where]
        return [value(f) if j == i else f for j, f in enumerate(fields)]
    return apply


PERTURBATIONS = {
    "drop-field": lambda f, net: f[:-1],
    "add-field": lambda f, net: [*f, b"x"],
    "unknown-network": _set("net", lambda v: b"XX"),
    "other-network": _set("net", lambda v: b"FB"),
    "bad-byte": _set("id", lambda v: v + b"\xff"),
    "overflow": _set("last", lambda v: b"99999999999999999999"),
    "negative": _set("last", lambda v: b"-" + v),
    "empty-last": _set("last", lambda v: b""),
    "dash-id": _set("id", lambda v: b"-"),
    "empty-id": _set("id", lambda v: b""),
    "crlf": lambda f, net: [*f[:-1], f[-1] + b"\r"],
    "lone-cr": _set("id", lambda v: v + b"\r"),
    "comment": lambda f, net: [b"#" + f[0], *f[1:]],
    "non-ascii": _set("id", lambda v: v + "é".encode()),
    "nul": _set("id", lambda v: v + b"\0"),
}

NETWORK_FIELD = {"posts": 0, "reactions": 0, "edges": 0, "users": 3}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """The input files and run config of a tiny synth output."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg, out = synth_config(tmp)
    assert run(["synth", "--config", cfg]) == 0
    kv = dict(line.split("=", 1)
              for line in (out / "synth.config").read_text().splitlines())
    return {name: (out / f"{name}.tsv").read_bytes() for name in NETWORK_FIELD}, kv


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(NETWORK_FIELD)),
       kind=st.sampled_from(sorted(PERTURBATIONS)),
       pick=st.integers(0, 10**6),
       max_malformed_frac=st.sampled_from(["0.01", "1"]))
def test_one_perturbed_line_never_escapes_main(tiny_inputs, tmp_path_factory,
                                               name, kind, pick,
                                               max_malformed_frac):
    # With max_malformed_frac=1 a bad line passes ingest, and the run goes
    # on to every later stage.
    files, kv = tiny_inputs
    run_dir = tmp_path_factory.mktemp("perturbed")
    for other, data in files.items():
        if other == name:
            lines = data.split(b"\n")
            i = pick % (len(lines) - 1)   # the text ends with a newline
            fields = PERTURBATIONS[kind](lines[i].split(b"\t"), NETWORK_FIELD[name])
            lines[i] = b"\t".join(fields)
            data = b"\n".join(lines)
        (run_dir / f"{other}.tsv").write_bytes(data)
    cfg = write_config(run_dir / "run.config", **{
        **kv, **{key: run_dir / f"{key}.tsv" for key in NETWORK_FIELD},
        "out": run_dir / "out", "max_malformed_frac": max_malformed_frac})
    assert run(["all", "--config", cfg]) in (0, 1, 2)
