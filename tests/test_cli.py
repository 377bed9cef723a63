"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main, parse_key


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "cli.dsf")


@pytest.fixture
def created(path):
    code, _ = run(
        "create", path, "--pages", "64", "--low-density", "8",
        "--capacity", "40",
    )
    assert code == 0
    return path


class TestParseKey:
    def test_int(self):
        assert parse_key("42") == 42
        assert isinstance(parse_key("42"), int)

    def test_float(self):
        assert parse_key("4.5") == 4.5

    def test_string_fallback(self):
        assert parse_key("alpha") == "alpha"


class TestCreate:
    def test_create_reports_geometry(self, path):
        code, output = run(
            "create", path, "--pages", "64", "--low-density", "8",
            "--capacity", "40",
        )
        assert code == 0
        assert "M=64" in output
        assert "cap 512 records" in output

    def test_create_refuses_overwrite_without_force(self, created):
        code, output = run(
            "create", created, "--pages", "64", "--low-density", "8",
            "--capacity", "40",
        )
        assert code == 1
        assert "error" in output

    def test_force_overwrites(self, created):
        code, _ = run(
            "create", created, "--pages", "32", "--low-density", "8",
            "--capacity", "40", "--force",
        )
        assert code == 0

    def test_create_rejects_bad_slack(self, path):
        code, output = run(
            "create", path, "--pages", "64", "--low-density", "8",
            "--capacity", "10",
        )
        assert code == 1
        assert "slack" in output


class TestPutGetDelete:
    def test_roundtrip(self, created):
        assert run("put", created, "7", "seven")[0] == 0
        code, output = run("get", created, "7")
        assert code == 0
        assert output.strip() == "7\tseven"

    def test_get_missing(self, created):
        code, output = run("get", created, "9")
        assert code == 2
        assert "not found" in output

    def test_delete(self, created):
        run("put", created, "7")
        assert run("delete", created, "7")[0] == 0
        assert run("get", created, "7")[0] == 2

    def test_delete_missing_is_an_error(self, created):
        code, output = run("delete", created, "7")
        assert code == 1
        assert "error" in output

    def test_duplicate_put_is_an_error(self, created):
        run("put", created, "7")
        code, output = run("put", created, "7")
        assert code == 1
        assert "error" in output


class TestScans:
    def test_load_then_scan(self, created):
        code, output = run("load", created, "--keys", "0:100:2")
        assert code == 0
        assert "loaded 50" in output
        code, output = run("scan", created, "--start", "10", "--count", "3")
        assert code == 0
        assert [line.split("\t")[0] for line in output.splitlines()] == [
            "10", "12", "14",
        ]

    def test_range(self, created):
        run("load", created, "--keys", "0:20")
        code, output = run("range", created, "--lo", "5", "--hi", "8")
        assert [line.split("\t")[0] for line in output.splitlines()] == [
            "5", "6", "7", "8",
        ]

    def test_delete_range(self, created):
        run("load", created, "--keys", "0:100")
        code, output = run("delete-range", created, "--lo", "10", "--hi", "89")
        assert code == 0
        assert "deleted 80" in output

    def test_bad_keys_spec(self, created):
        code, output = run("load", created, "--keys", "0")
        assert code == 1
        assert "start:stop" in output


class TestInfoVerify:
    def test_info_shows_fill_and_heatmap(self, created):
        run("load", created, "--keys", "0:200")
        code, output = run("info", created)
        assert code == 0
        assert "CONTROL 2" in output
        assert "200 records" in output
        assert "|" in output  # the heatmap strip

    @pytest.mark.parametrize("backend, shown", [
        ((), "journaled"), (("--backend", "journaled"), "journaled"),
        (("--backend", "disk"), "disk"), (("--backend", "buffered"), "buffered"),
    ])
    def test_info_names_the_stack_it_opened(self, created, backend, shown):
        run("load", created, "--keys", "0:200")
        code, output = run("info", created, *backend)
        assert code == 0
        assert f"backend:   {shown}\n" in output
        assert "balance:   headroom " in output

    def test_verify_clean(self, created):
        run("load", created, "--keys", "0:50")
        code, output = run("verify", created)
        assert code == 0
        assert "ok" in output

    def test_verify_detects_corruption(self, created):
        run("load", created, "--keys", "0:50")
        from repro.persistent import PersistentDenseFile
        from repro.storage.ondisk import HEADER, SLOT_HEADER

        with PersistentDenseFile.open(created) as dense:
            page = dense.engine.pagefile.nonempty_pages()[0]
            slot = dense._raw.slot_capacity
        offset = HEADER.size + (page - 1) * slot + SLOT_HEADER.size + 1
        with open(created, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\x99")
        code, output = run("verify", created)
        assert code == 3
        assert "CORRUPT" in output

    def test_open_missing_file(self, path):
        code, output = run("info", path)
        assert code == 1


class TestDemo:
    def test_demo_replays_figure_4(self):
        code, output = run("demo")
        assert code == 0
        assert "t8: [15, 9, 0, 0, 4, 9, 15, 11]" in output
        assert "matches Figure 4" in output


class TestExitCodeContract:
    """Every exit code in the documented contract, pinned.

    0 clean, 1 error, 2 not-found, 3 corrupt, 4 bench regression,
    5 degraded read-only, 6 pending journal replay.  Operators script
    against these numbers; changing one is a breaking change.
    """

    def test_constants_match_the_documented_table(self):
        from repro import cli

        assert (
            cli.EXIT_OK,
            cli.EXIT_ERROR,
            cli.EXIT_NOT_FOUND,
            cli.EXIT_CORRUPT,
            cli.EXIT_REGRESSION,
            cli.EXIT_DEGRADED,
            cli.EXIT_PENDING_REPLAY,
        ) == (0, 1, 2, 3, 4, 5, 6)

    def test_docstring_documents_every_code(self):
        from repro import cli

        for line in ("0  clean", "5  ", "6  "):
            assert any(
                line.split()[0] in docline
                for docline in cli.__doc__.splitlines()
            )
        assert "degraded" in cli.__doc__
        assert "pending" in cli.__doc__

    def test_clean_verify_is_0(self, created):
        run("put", created, "1")
        assert run("verify", created)[0] == 0

    def test_usage_error_is_1(self, created):
        assert run("delete", created, "99")[0] == 1

    def test_missing_key_is_2(self, created):
        assert run("get", created, "42")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("put", "1000", "v"),
            ("get", "5"),
            ("delete", "5"),
            ("scan", "--start", "0", "--count", "5"),
            ("range", "--lo", "0", "--hi", "50"),
            ("load", "--keys", "2000:2010"),
            ("rank", "5"),
            ("count", "--lo", "0", "--hi", "50"),
            ("delete-range", "--lo", "0", "--hi", "5"),
            ("compact",),
            ("info",),
            ("verify",),
            ("scrub",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_undecodable_page_is_3_on_every_command(self, created, argv):
        """A CRC-valid slot whose payload does not decode is corruption,
        reported through the contract rather than a traceback."""
        from repro.storage.ondisk import DiskPagedStore

        run("load", created, "--keys", "0:300")
        with DiskPagedStore.open(created) as raw:
            raw.write_page_payload(3, b"\x09garbage")
        code, output = run(argv[0], created, *argv[1:])
        assert code == 3, output
        assert "Traceback" not in output

    @staticmethod
    def _damage(path, rung):
        """Break the first nonempty page's slot the way ``rung`` names.

        ``torn-slot``: the second half of the frame never landed (stale
        bytes remain); ``bit-flip``: one payload bit flipped at rest.
        Either way the slot's CRC no longer matches its payload.
        """
        from repro.persistent import PersistentDenseFile
        from repro.storage.ondisk import SLOT_HEADER, DiskPagedStore

        with PersistentDenseFile.open(path) as dense:
            page = dense.engine.pagefile.nonempty_pages()[0]
        with DiskPagedStore.open(path) as raw:
            offset = raw._slot_offset(page)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            length, _crc = SLOT_HEADER.unpack(handle.read(SLOT_HEADER.size))
            frame = SLOT_HEADER.size + length
            if rung == "torn-slot":
                handle.seek(offset + frame // 2)
                handle.write(b"\xa5" * (frame - frame // 2))
            else:
                handle.seek(offset + SLOT_HEADER.size + length // 2)
                byte = handle.read(1)[0]
                handle.seek(-1, 1)
                handle.write(bytes([byte ^ 0x10]))

    @pytest.mark.parametrize("rung", ["torn-slot", "bit-flip"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("put", "1000", "v"),
            ("get", "5"),
            ("delete", "5"),
            ("scan", "--start", "0", "--count", "5"),
            ("range", "--lo", "0", "--hi", "50"),
            ("load", "--keys", "2000:2010"),
            ("rank", "5"),
            ("count", "--lo", "0", "--hi", "50"),
            ("delete-range", "--lo", "0", "--hi", "5"),
            ("compact",),
            ("verify",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_checksum_mismatch_is_3_on_every_command(
        self, created, argv, rung
    ):
        """A slot that fails its CRC is corruption on every command that
        opens the file, with an ``error:``/``CORRUPT`` line, no traceback."""
        run("load", created, "--keys", "0:300")
        self._damage(created, rung)
        code, output = run(argv[0], created, *argv[1:])
        assert code == 3, output
        assert "Traceback" not in output
        assert "checksum mismatch" in output or "CORRUPT" in output

    @pytest.mark.parametrize("rung", ["torn-slot", "bit-flip"])
    def test_checksum_mismatch_info_degrades_scrub_repairs(
        self, created, rung
    ):
        """``verify`` names the retained applied journal image as the
        repair path (3), ``info`` falls back to the degraded view (5),
        and ``scrub`` heals the page from that image (0)."""
        run("load", created, "--keys", "0:300")
        self._damage(created, rung)
        code, output = run("verify", created)
        assert code == 3, output
        assert "repairable from the retained applied journal image" in output
        assert "no journaled image" not in output
        code, output = run("info", created)
        assert code == 5, output
        assert "DEGRADED" in output
        assert "backend:   disk\n" in output  # the degraded fallback
        code, output = run("scrub", created)
        assert code == 0, output
        assert "repaired pages" in output
        assert run("verify", created)[0] == 0


    @staticmethod
    def _plant_pending_journal(path):
        """Leave a committed but unapplied transaction beside ``path``:
        the first nonempty page's own image, so replaying it is sound."""
        from repro.persistent import JournaledDenseFile
        from repro.storage.packed import encode_records_image

        with JournaledDenseFile.open(path) as dense:
            page = dense.engine.pagefile.nonempty_pages()[0]
            records = dense.engine.pagefile.page(page).records()
            dense.journal.write_transaction(
                {page: encode_records_image(records)}
            )
            return dense.journal.sequence

    @pytest.mark.parametrize("backend", ["disk", "buffered"])
    @pytest.mark.parametrize("command", ["verify", "info"])
    def test_pending_journal_is_6_on_plain_backends(
        self, created, command, backend
    ):
        """A plain backend cannot replay a committed journal: it reports
        the durable LSN and exits 6 instead of refusing to open."""
        run("load", created, "--keys", "0:300")
        sequence = self._plant_pending_journal(created)
        code, output = run(command, created, "--backend", backend)
        assert code == 6, output
        assert f"durable LSN {sequence}" in output
        assert "pending replay" in output

    def test_pending_journal_replays_under_journaled_verify(self, created):
        run("load", created, "--keys", "0:300")
        self._plant_pending_journal(created)
        code, output = run("verify", created)
        assert code == 0, output
        assert "ok:" in output
        assert run("verify", created, "--backend", "disk")[0] == 0


class TestHarnessVerdicts:
    """Harness verdicts follow the contract: 0 clean, 3 findings, 1 bad
    usage; a failing report is planted so no real run has to fail."""

    def test_stress_findings_are_3(self, monkeypatch):
        from repro.concurrent import harness

        monkeypatch.setattr(
            harness,
            "run_stress",
            lambda config: harness.StressReport(violations=["planted"]),
        )
        code, output = run("stress", "--ops", "20")
        assert code == 3, output
        assert "VIOLATION: planted" in output

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_self_test_failure_is_3(self, monkeypatch, sanitize):
        from repro import sanitizer
        from repro.concurrent import harness

        failed = harness.SelfTestReport(
            clean=harness.StressReport(),
            race_detected=False,
            deadlock_detected=True,
        )
        sanitize_failed = sanitizer.SanitizeSelfTestReport(
            clean=harness.StressReport(),
            unlocked_write_detected=True,
            abba_detected=False,
        )
        monkeypatch.setattr(harness, "self_test", lambda seed: failed)
        monkeypatch.setattr(
            sanitizer, "sanitize_self_test", lambda seed: sanitize_failed
        )
        argv = ["stress", "--self-test"] + (["--sanitize"] if sanitize else [])
        code, output = run(*argv)
        assert code == 3, output
        assert "FAILED" in output

    def test_replica_reads_findings_are_3(self, monkeypatch):
        from repro import replication

        monkeypatch.setattr(
            replication,
            "run_replica_stress",
            lambda config: replication.ReplicaStressReport(
                violations=["planted"]
            ),
        )
        code, output = run("stress", "--replica-reads", "--ops", "20")
        assert code == 3, output
        assert "VIOLATION: planted" in output

    def test_soak_findings_are_3(self, monkeypatch, tmp_path):
        from repro import replication

        monkeypatch.setattr(
            replication,
            "run_soak",
            lambda config: replication.SoakReport(
                seconds=1.0, seed=7, transport="queue",
                findings=["planted"],
            ),
        )
        code, output = run("soak", "--workdir", str(tmp_path))
        assert code == 3, output
        assert "FINDING: planted" in output

    def test_chaos_violation_is_3(self, monkeypatch):
        from repro.cluster import chaos

        def planted(**kwargs):
            report = chaos.ChaosReport(config=chaos.ChaosConfig())
            report.violations.append("planted")
            return [("clean", report)]

        monkeypatch.setattr(chaos, "run_sweep", planted)
        code, output = run("chaos", "--profile", "clean")
        assert code == 3, output
        assert "0/1 profiles held" in output

    def test_sweep_failure_is_3_with_a_replay_line(self, monkeypatch):
        from repro.cluster import chaos

        def planted(seed, **kwargs):
            report = chaos.ChaosReport(config=chaos.ChaosConfig(seed=seed))
            report.violations.append("planted")
            return [("storm", report)]

        monkeypatch.setattr(chaos, "run_sweep", planted)
        code, output = run("chaos", "--ops", "9", "--iterations", "3")
        assert code == 3, output
        replay = [line for line in output.splitlines() if "replay:" in line]
        assert len(replay) == 1
        assert replay[0].startswith("replay: python -m repro chaos --ops 9 --seed ")

    def test_bad_usage_is_1(self):
        assert run("stress", "--seed", "1", "--iterations", "2")[0] == 1
        with pytest.raises(SystemExit) as exit_info:
            run("stress", "--no-such-flag")
        assert exit_info.value.code == 1

    def test_invalid_bench_report_is_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        code, output = run("bench", "--validate", str(bad))
        assert code == 1
        assert "not a valid" in output
        code, output = run("bench", "--compare", str(bad), str(bad))
        assert code == 1
        (tmp_path / "garbage.json").write_text("{")
        assert run("bench", "--validate", str(tmp_path / "garbage.json"))[0] == 1

    def test_bench_writes_no_report_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = run("bench", "--quick", "--scenario", "mixed")
        assert code == 0
        assert "report written" not in output
        assert list(tmp_path.iterdir()) == []


class TestClusterCli:
    def test_serve_binds_and_shuts_down(self):
        code, output = run(
            "serve", "--seconds", "0.2", "--port", "0", "--shards", "2",
            "--key-space", "100",
        )
        assert code == 0
        assert "shard 0" in output and "shard 1" in output
        assert "serving" in output

    def test_chaos_single_profile_holds(self):
        code, output = run(
            "chaos", "--ops", "24", "--seed", "2", "--profile", "clean",
        )
        assert code == 0
        assert "TRICHOTOMY HELD" in output
        assert "1/1 profiles held" in output

    def test_chaos_writes_a_json_artifact(self, tmp_path):
        artifact = str(tmp_path / "chaos.json")
        code, output = run(
            "chaos", "--ops", "24", "--seed", "2", "--profile", "kill-shard",
            "--out", artifact,
        )
        assert code == 0
        import json

        with open(artifact) as handle:
            payload = json.load(handle)
        assert payload["schema"] == "repro-chaos/1"
        assert payload["ok"] is True
        assert "kill-shard" in payload["profiles"]

    def test_chaos_rejects_unknown_profile(self):
        code, output = run("chaos", "--ops", "10", "--profile", "nonsense")
        assert code == 1
        assert "unknown chaos profile" in output

    def test_bench_runs_the_cluster_cell(self):
        code, output = run(
            "bench", "--quick", "--bench-backend", "cluster",
            "--scenario", "mixed", "--out", "-",
        )
        assert code == 0
        cells = [line.split() for line in output.splitlines()[1:]]
        assert [cell[:2] for cell in cells] == [["mixed", "cluster"]]
        # ops=600: 897 logical page accesses, three at worst.
        assert "897 accesses" in output
        assert output.rstrip().endswith("worst 3")
