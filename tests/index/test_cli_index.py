"""CLI front door for the MinHash/LSH subsystem: ``repro-em index`` and
``repro-em resolve --blocking minhash``.

JSON output must be byte-identical across runs — the payloads exclude
wall-clock measurements precisely so the CLI can be snapshot-tested.
"""

import hashlib
import json

from repro.cli import main


class TestIndexCommand:
    ARGS = ["index", "--synthetic", "300", "--stats", "--format", "json"]
    #: sha256 of the stdout of ARGS.
    DIGEST = "b16eeb7730bb879c409e48471288ed71ab99804b3137ce155809e91849766242"

    def test_json_output_is_pinned(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGEST

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["records"] == 300
        assert payload["index"]["records"] == 300

    def test_recall_curve_uses_the_shared_metric(self, capsys):
        # the benchmark's primary operating point (32x3, floor 0.35)
        assert main(self.ARGS + ["--top-k", "5", "--bands", "32",
                                 "--rows", "3",
                                 "--min-similarity", "0.35"]) == 0
        payload = json.loads(capsys.readouterr().out)
        curve = payload["recall_curve"]
        # ks filtered to the cut-off, plus the no-cut-off point
        assert [point["k"] for point in curve] == [1, 2, 5, None]
        recalls = [point["recall"] for point in curve]
        assert recalls == sorted(recalls)
        assert payload["true_pairs"] > 0
        # the tuned operating point recalls nearly everything at 300
        assert curve[-1]["recall"] >= 0.9

    def test_dataset_mode_prefixes_sides(self, capsys):
        args = ["index", "--dataset", "abt-buy", "--split", "test",
                "--stats", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "abt-buy/test"
        assert payload["true_pairs"] > 0

    def test_text_format_renders_ingest_and_curve(self, capsys):
        assert main(["index", "--synthetic", "200", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "synthetic:200: 200 records -> " in out
        assert " buckets (bands " in out
        assert "records/sec" in out
        assert "recall" in out

    def test_bands_without_rows_rejected(self, capsys):
        assert main(["index", "--synthetic", "50", "--bands", "16"]) == 2
        assert "--bands/--rows" in capsys.readouterr().out

    def test_nonpositive_top_k_rejected(self, capsys):
        assert main(["index", "--synthetic", "50", "--top-k", "0"]) == 2

    def test_nonpositive_synthetic_rejected(self, capsys):
        assert main(["index", "--synthetic", "0"]) == 2

    def test_explicit_banding_overrides_solver(self, capsys):
        args = ["index", "--synthetic", "100", "--bands", "16",
                "--rows", "4", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"]["bands"] == 16
        assert payload["index"]["rows"] == 4
        assert payload["index"]["num_perm"] == 64


class TestResolveMinhashBlocking:
    ARGS = ["resolve", "--dataset", "abt-buy", "--limit", "60",
            "--blocking", "minhash"]

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["blocker"] == "minhash"
        assert payload["clusters"] >= 1

    def test_top_k_bounds_the_candidate_set(self, capsys):
        assert main(
            self.ARGS + ["--top-k", "1", "--format", "json"]
        ) == 0
        narrow = json.loads(capsys.readouterr().out)
        assert main(
            self.ARGS + ["--top-k", "10", "--format", "json"]
        ) == 0
        wide = json.loads(capsys.readouterr().out)
        assert narrow["candidates"] <= wide["candidates"]
