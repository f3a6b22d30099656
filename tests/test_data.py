import hashlib
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import lfilter, periodogram

from iws import data
from iws.data import (
    CHANNEL_COUNT,
    SubjectDataset,
    SynthConfig,
    Trial,
    _background,
    generate_synthetic_dataset,
    read_dataset,
    read_trial_file,
    trial_filename,
    write_dataset,
    write_text,
    write_trial_file,
)
from iws.errors import ConfigError, InvariantViolation, MalformedFile


def make_trial(n=320, onset=128, ending=192, seed=0, subject="s01"):
    gen = np.random.default_rng(seed)
    return Trial(subject_id=subject, samples=gen.standard_normal((n, 14)),
                 onset_sample=onset, ending_sample=ending)


EIGHT_FILES = [trial_filename("s01", i) for i in range(8)]


def same_trial(a, b):
    """Whether two trials have equal fields, the samples bit for bit."""
    return (a.subject_id == b.subject_id and a.onset_sample == b.onset_sample
            and a.ending_sample == b.ending_sample and a.samples.shape == b.samples.shape
            and np.array_equal(a.samples, b.samples))


def interrupt_replace(monkeypatch, name=None):
    """Make ``os.replace`` raise KeyboardInterrupt when it renames onto a file
    called ``name`` (onto any file if None); other renames go through."""
    replace = os.replace

    def interrupted(src, dst):
        if name is None or os.path.basename(dst) == name:
            raise KeyboardInterrupt
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted)


class TestFiles:
    def test_write_text_writes_utf8_with_line_ends_as_given(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, "s\u00e9\r\nx\n")
        assert path.read_bytes() == b"s\xc3\xa9\r\nx\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]

    def test_write_text_into_a_missing_directory_raises_its_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_text(tmp_path / "missing" / "f.txt", "x")
        assert list(tmp_path.iterdir()) == []


class TestTrialInvariants:
    def test_valid_trial(self):
        t = make_trial()
        assert t.n_samples == 320

    def test_marker_ordering_rejected(self):
        with pytest.raises(InvariantViolation):
            make_trial(onset=200, ending=150)

    def test_nonfinite_rejected(self):
        samples = np.zeros((320, 14))
        samples[5, 3] = np.nan
        with pytest.raises(InvariantViolation):
            Trial(subject_id="x", samples=samples, onset_sample=128, ending_sample=192)

    def test_too_short_rejected(self):
        with pytest.raises(InvariantViolation):
            make_trial(n=191, onset=64, ending=128)

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(InvariantViolation):
            Trial(subject_id="x", samples=np.zeros((320, 13)),
                  onset_sample=128, ending_sample=192)

    def test_samples_are_immutable(self):
        t = make_trial()
        with pytest.raises(ValueError):
            t.samples[0, 0] = 1.0


class TestTrialFiles:
    def test_identity_read(self, tmp_path):
        t = make_trial()
        path = tmp_path / "t.json"
        write_trial_file(t, path)
        back = read_trial_file(path)
        assert back.onset_sample == 128 and back.ending_sample == 192
        assert back.n_samples == 320

    def test_round_trip_bit_for_bit(self, tmp_path):
        t = make_trial(seed=99)
        path = tmp_path / "t.json"
        write_trial_file(t, path)
        back = read_trial_file(path)
        assert same_trial(back, t)

    @pytest.mark.parametrize("n", [192, 255, 256, 257])
    def test_written_bytes_equal_json_dumps(self, tmp_path, n):
        # the file is one json.dumps of the trial's document; lengths around
        # 256 rows, and values whose repr is long or signed
        samples = np.random.default_rng(n).standard_normal((n, CHANNEL_COUNT))
        samples[0, :5] = (-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e16)
        samples[-1, -1] = -0.0
        t = Trial(subject_id="s01", samples=samples, onset_sample=128, ending_sample=190)
        doc = {
            "subject_id": "s01",
            "sampling_rate": 128,
            "channels": [f"ch{c:02d}" for c in range(CHANNEL_COUNT)],
            "onset_sample": 128,
            "ending_sample": 190,
            "samples": samples.tolist(),
        }
        path = tmp_path / "t.json"
        write_trial_file(t, path)
        assert path.read_bytes() == json.dumps(doc).encode()

    def test_interrupted_rename_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.json"
        write_trial_file(make_trial(seed=1), path)
        before = path.read_bytes()
        interrupt_replace(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            write_trial_file(make_trial(seed=2), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_marker_violation_on_read(self, tmp_path):
        t = make_trial()
        path = tmp_path / "t.json"
        write_trial_file(t, path)
        doc = json.loads(path.read_text())
        doc["onset_sample"], doc["ending_sample"] = 200, 150
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match="markers must satisfy") as exc:
            read_trial_file(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("case,check", [
        ("nan", "non-finite sample values"), ("infinity", "non-finite sample values"),
        ("-infinity", "non-finite sample values"), ("short", "150 samples < 192 minimum"),
        ("array", "top-level value must be an object"),
        ("channels", "field 'channels' must list 14 names"), ("empty", "field 'samples' is empty"),
    ])
    def test_invalid_trial_names_the_file(self, tmp_path, case, check):
        # json.load reads NaN and Infinity; the Trial check rejects them
        path = tmp_path / "t.json"
        write_trial_file(make_trial(), path)
        doc = json.loads(path.read_text())
        if case == "short":
            doc["samples"] = doc["samples"][:150]
        elif case == "array":
            doc = [doc]
        elif case == "channels":
            doc["channels"] = doc["channels"][:13]
        elif case == "empty":
            doc["samples"] = []
        else:
            doc["samples"][3][2] = float(case)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match=check) as exc:
            read_trial_file(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("field", ["subject_id", "sampling_rate", "onset_sample", "samples"])
    def test_missing_field_names_path(self, tmp_path, field):
        t = make_trial()
        path = tmp_path / "t.json"
        write_trial_file(t, path)
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match=field):
            read_trial_file(path)

    def test_other_sampling_rate_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        write_trial_file(make_trial(), path)
        doc = json.loads(path.read_text())
        assert doc["sampling_rate"] == 128
        doc["sampling_rate"] = 256
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match="sampling_rate"):
            read_trial_file(path)

    @pytest.mark.parametrize("field,value", [
        ("samples", "abc"), ("samples", [1.0, 2.0]), ("samples", "1.5"), ("samples", True),
        ("samples", None), pytest.param("samples", 10**400, id="samples-past-double-range"),
        ("onset_sample", True), ("onset_sample", 128.0), ("ending_sample", False),
    ])
    def test_only_json_numbers_read(self, tmp_path, field, value):
        path = tmp_path / "t.json"
        write_trial_file(make_trial(), path)
        doc = json.loads(path.read_text())
        if field == "samples":
            doc["samples"][3][2] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match=field):
            read_trial_file(path)

    def test_integer_past_digit_limit_rejected(self, tmp_path):
        # json.load raises a plain ValueError, not a JSONDecodeError, for it
        path = tmp_path / "t.json"
        write_trial_file(make_trial(), path)
        text = path.read_text()
        path.write_text(text.replace('"samples": [[', '"samples": [[' + "9" * 5000 + ", ", 1))
        with pytest.raises(MalformedFile, match="not valid JSON"):
            read_trial_file(path)

    def test_integer_samples_read(self, tmp_path):
        path = tmp_path / "t.json"
        write_trial_file(make_trial(), path)
        doc = json.loads(path.read_text())
        doc["samples"][3] = list(range(14))
        path.write_text(json.dumps(doc))
        assert read_trial_file(path).samples[3].tolist() == [float(v) for v in range(14)]

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{ not json")
        with pytest.raises(MalformedFile):
            read_trial_file(path)

    def test_nan_rejected_before_write(self, tmp_path):
        t = make_trial()
        hacked = np.array(t.samples)
        hacked[0, 0] = np.inf
        with pytest.raises(InvariantViolation):
            Trial(subject_id="x", samples=hacked, onset_sample=128, ending_sample=192)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(192, 400),
           onset=st.integers(1, 100))
    def test_round_trip_property(self, tmp_path, seed, n, onset):
        ending = min(onset + 64, n - 1)
        t = make_trial(n=n, onset=onset, ending=ending, seed=seed)
        path = tmp_path / f"p{seed}.json"
        write_trial_file(t, path)
        assert same_trial(read_trial_file(path), t)


class TestSynthConfig:
    def test_negative_snr_rejected(self):
        with pytest.raises(ConfigError, match="snr"):
            SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                        iws_length_range=(64, 128), snr=-1.0)

    def test_iws_must_fit(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=256,
                        iws_length_range=(64, 200))
        # nor may the range be reversed or shorter than a window, or the carrier reach Nyquist
        for change, message in [({"iws_length_range": (128, 64)}, "0 < min <= max"),
                                ({"iws_length_range": (32, 128)}, "minimum 32 < window size 64"),
                                ({"carrier_band_hz": (8.0, 64.0)}, "inside (0, Nyquist)")]:
            cfg = dict(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                       iws_length_range=(64, 128))
            with pytest.raises(ConfigError, match=re.escape(message)):
                SynthConfig(**{**cfg, **change})

    def test_zero_snr_allowed(self):
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=0.0)
        assert cfg.snr == 0.0


class TestGenerator:
    CFG = dict(n_subjects=2, trials_per_subject=8, trial_length_samples=320,
               iws_length_range=(64, 128), carrier_band_hz=(8.0, 12.0))

    def test_determinism(self):
        a = generate_synthetic_dataset(SynthConfig(seed=7, snr=3.0, **self.CFG))
        b = generate_synthetic_dataset(SynthConfig(seed=7, snr=3.0, **self.CFG))
        for ds_a, ds_b in zip(a, b):
            assert ds_a.subject_id == ds_b.subject_id
            for ta, tb in zip(ds_a.trials, ds_b.trials):
                assert same_trial(ta, tb)

    def test_different_seeds_differ(self):
        a = generate_synthetic_dataset(SynthConfig(seed=7, snr=3.0, **self.CFG))
        b = generate_synthetic_dataset(SynthConfig(seed=8, snr=3.0, **self.CFG))
        assert not same_trial(a[0].trials[0], b[0].trials[0])

    def test_all_trials_valid(self):
        for ds in generate_synthetic_dataset(SynthConfig(seed=3, snr=5.0, **self.CFG)):
            for t in ds.trials:  # each was checked when it was built
                assert t.onset_sample >= 64
                assert t.n_samples - t.ending_sample >= 64
        # the subject record refuses an unknown protocol and too few trials for the split
        with pytest.raises(InvariantViolation, match="unknown protocol_tag 'dataset9'"):
            SubjectDataset(subject_id=ds.subject_id, trials=ds.trials, protocol_tag="dataset9")
        with pytest.raises(InvariantViolation, match="7 trials < 8"):
            SubjectDataset(subject_id=ds.subject_id, trials=ds.trials[:7])

    def test_snr_zero_variance_ratio(self):
        # oracle: direct variance computation over 100 generated trials
        cfg = SynthConfig(n_subjects=1, trials_per_subject=100, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=0.0, seed=5)
        ds = generate_synthetic_dataset(cfg)[0]
        ratios = []
        for t in ds.trials:
            iws = t.samples[t.onset_sample:t.ending_sample, :]
            iss = np.concatenate([t.samples[:t.onset_sample, :],
                                  t.samples[t.ending_sample:, :]])
            ratios.append(iws.var() / iss.var())
        assert 0.9 <= np.mean(ratios) <= 1.1

    def test_snr5_bandpower(self):
        # oracle: periodogram bandpower inside vs outside the IWS
        cfg = SynthConfig(n_subjects=1, trials_per_subject=20, trial_length_samples=448,
                          iws_length_range=(128, 192), snr=5.0, seed=5)
        ds = generate_synthetic_dataset(cfg)[0]
        iws_bp, iss_bp = [], []
        for t in ds.trials:
            for ch in range(14):
                f, p_iws = periodogram(t.samples[t.onset_sample:t.ending_sample, ch], fs=128)
                band = (f >= 8) & (f <= 12)
                iws_bp.append(p_iws[band].sum())
                f, p_iss = periodogram(t.samples[:t.onset_sample, ch], fs=128)
                band = (f >= 8) & (f <= 12)
                iss_bp.append(p_iss[band].sum())
        assert np.mean(iws_bp) >= 5.0 * np.mean(iss_bp)

    @pytest.mark.parametrize("n", [224, 320, 768])
    @pytest.mark.parametrize("seed", [0, 1, 424242])
    def test_background_matches_lfilter_oracle(self, n, seed):
        # oracle: the same draws with the AR(1) taken by scipy's lfilter
        rng = np.random.default_rng(seed)
        white = rng.standard_normal((n, CHANNEL_COUNT))
        driven = rng.standard_normal((n, CHANNEL_COUNT))
        lowpassed = lfilter([1.0], [1.0, -0.9], driven, axis=0)
        lowpassed = lowpassed / np.sqrt(1.0 / (1.0 - 0.9 ** 2))
        expected = 0.7 * white + 0.7 * lowpassed
        assert np.array_equal(_background(np.random.default_rng(seed), n), expected)

    def test_samples_digest_pinned(self):
        # recorded when the background was filtered by scipy's lfilter
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(96, 160), snr=5.0, seed=7)
        digest = hashlib.sha256()
        for ds in generate_synthetic_dataset(cfg):
            for t in ds.trials:
                digest.update(t.samples.tobytes())
        assert digest.hexdigest() == (
            "cb0584596e5357816be9e82a96b08ff8a822ce8aff4fe33aa4dc1de64fecdcc9")


class TestDatasetDirectory:
    def test_bulk_round_trip(self, tmp_path):
        cfg = SynthConfig(n_subjects=2, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=2.0, seed=13)
        datasets = generate_synthetic_dataset(cfg)
        write_dataset(datasets, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert [d.subject_id for d in back] == [d.subject_id for d in datasets]
        for ds_a, ds_b in zip(datasets, back):
            assert ds_b.protocol_tag == "synthetic"
            for ta, tb in zip(ds_a.trials, ds_b.trials):
                assert same_trial(ta, tb)

    def test_trial_files_match_json_dump(self, tmp_path):
        # trial files are written by one json.dumps call; the bytes must
        # equal what json.dump, the streaming encoder, writes for the same
        # document
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=224,
                          iws_length_range=(64, 96), snr=5.0, seed=424242)
        [dataset] = generate_synthetic_dataset(cfg)
        write_dataset([dataset], tmp_path / "ds")
        for i, trial in enumerate(dataset.trials):
            doc = {
                "subject_id": trial.subject_id,
                "sampling_rate": 128,
                "channels": [f"ch{c:02d}" for c in range(CHANNEL_COUNT)],
                "onset_sample": trial.onset_sample,
                "ending_sample": trial.ending_sample,
                "samples": trial.samples.tolist(),
            }
            oracle = io.StringIO()
            json.dump(doc, oracle)
            written = (tmp_path / "ds" / trial_filename(dataset.subject_id, i)).read_text()
            assert written == oracle.getvalue(), i

    def test_interrupted_manifest_rename_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=2.0, seed=13)
        datasets = generate_synthetic_dataset(cfg)
        write_dataset(datasets, tmp_path)
        interrupt_replace(monkeypatch, "manifest.json")
        with pytest.raises(KeyboardInterrupt):
            write_dataset(datasets, tmp_path)
        # the old manifest went first, and the new one never arrived
        assert sorted(p.name for p in tmp_path.iterdir()) == EIGHT_FILES

    def test_interrupted_regenerate_does_not_read(self, tmp_path, monkeypatch):
        # dataset B interrupted at its 4th trial file over dataset A must not
        # read as B's first three trials followed by A's last five
        def dataset(seed):
            return generate_synthetic_dataset(SynthConfig(
                n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                iws_length_range=(64, 128), snr=2.0, seed=seed))

        write_dataset(dataset(13), tmp_path)
        write_trial_file, written = data.write_trial_file, []

        def interrupted(trial, path):
            if len(written) == 3:
                raise KeyboardInterrupt
            written.append(path)
            write_trial_file(trial, path)

        monkeypatch.setattr(data, "write_trial_file", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_dataset(dataset(14), tmp_path)
        assert len(written) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == EIGHT_FILES
        with pytest.raises(OSError):
            read_dataset(tmp_path)

    def test_manifest_lists_files(self, tmp_path):
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=2.0, seed=13)
        write_dataset(generate_synthetic_dataset(cfg), tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        files = manifest["subjects"][0]["files"]
        assert len(files) == 8
        for name in files:
            assert (tmp_path / "ds" / name).exists()

    @pytest.mark.parametrize("manifest,field", [
        (5, "top-level"), ("subjects", "top-level"), ({"subjects": [5]}, "subjects[0]"),
        ({"subjects": [{"subject_id": "s01", "files": [5]}]}, "subjects[0].files"),
        ({"subjects": [{"subject_id": "s01", "files": ["s01_000.json", None]}]},
         "subjects[0].files"),
        ({"subjects": []}, "'subjects' is empty"),
        ({"subjects": [{"subject_id": "s01", "protocol_tag": "dataset9", "files": []}]},
         "'subjects[0].protocol_tag' must be one of"),
        ({"subjects": [{"subject_id": "s01", "protocol_tag": ["x"], "files": []}]},
         "'subjects[0].protocol_tag' must be one of"),
        ({"subjects": [{"subject_id": "s01", "files": EIGHT_FILES[:7]}]},
         "'subjects[0].files' lists 7 trials < 8"),
        ({"subjects": [{"subject_id": "s01", "files": EIGHT_FILES[:1] * 8 + EIGHT_FILES[1:2]}]},
         "'subjects[0].files' lists 's01_000.json' twice"),
        *(({"subjects": [{"subject_id": "s01", "files": [name] + EIGHT_FILES[1:]}]},
           f"'subjects[0].files' entry {name!r} is not a plain file name")
          for name in ("/elsewhere/s01_000.json", "../s01_000.json", "sub/s01_000.json", "..",
                       "s01\0.json")),
    ])
    def test_malformed_manifest_names_path(self, tmp_path, manifest, field):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(MalformedFile, match=re.escape(field)) as exc:
            read_dataset(tmp_path)
        assert str(path) in str(exc.value)

    def test_manifest_integer_past_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"schema_version": ' + "9" * 5000 + ', "subjects": []}')
        with pytest.raises(MalformedFile, match="not valid JSON"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("case,message", [
        ("repeat", "'subjects[1].subject_id' repeats 's01'"),
        ("repeat-other-files", "'subjects[1].subject_id' repeats 's01'"),
        ("foreign-id", "is 's09', but s02_000.json belongs to 's02'"),
        ("foreign-files", "is 's01', but s02_000.json belongs to 's02'"),
    ], ids=["repeat", "repeat-other-files", "foreign-id", "foreign-files"])
    def test_manifest_subject_ids_unique_and_match_trials(self, tmp_path, case, message):
        cfg = SynthConfig(n_subjects=2, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=2.0, seed=13)
        write_dataset(generate_synthetic_dataset(cfg), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        first, second = manifest["subjects"]
        if case == "repeat":
            manifest["subjects"] = [first, dict(first)]
        elif case == "repeat-other-files":
            second["subject_id"] = "s01"
        elif case == "foreign-id":
            second["subject_id"] = "s09"
        else:
            first["files"] = second["files"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(MalformedFile, match=re.escape(message)) as exc:
            read_dataset(tmp_path)
        assert str(path) in str(exc.value)

    def test_file_name_without_utf8_bytes_refused(self, tmp_path):
        # a lone surrogate has no UTF-8 encoding, so no file name on disk
        name = "s\udce9"
        trials = [make_trial(seed=i, subject=name) for i in range(8)]
        with pytest.raises(MalformedFile, match="is not valid UTF-8"):
            write_dataset([SubjectDataset(subject_id=name, trials=trials)], tmp_path / "out")
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"subjects": [{"subject_id": "s01", "files": EIGHT_FILES[:7] + [name + ".json"]}]}))
        with pytest.raises(MalformedFile, match="is not valid UTF-8"):
            read_dataset(tmp_path)

    def test_manifest_naming_a_missing_trial_file_names_it(self, tmp_path):
        cfg = SynthConfig(n_subjects=1, trials_per_subject=8, trial_length_samples=320,
                          iws_length_range=(64, 128), snr=2.0, seed=13)
        write_dataset(generate_synthetic_dataset(cfg), tmp_path)
        path = tmp_path / "manifest.json"
        missing = json.loads(path.read_text())["subjects"][0]["files"][3]
        (tmp_path / missing).unlink()
        with pytest.raises(MalformedFile) as exc:
            read_dataset(tmp_path)
        assert str(exc.value).startswith(
            f"{path}: field 'subjects[0].files' names {missing!r}, which is not a file in ")
