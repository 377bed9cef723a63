"""The torture harness itself: determinism, teeth, and its CLI fronts."""

import io
import os
import shlex
import subprocess
import sys
import tempfile

from repro.concurrent.harness import (
    StressConfig,
    build_schedule,
    negative_control_deadlock,
    negative_control_race,
    run_stress,
    schedule_digest,
    self_test,
)

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "stress.py")


class TestDeterminism:
    def test_same_seed_same_schedule_digest(self):
        config = StressConfig(seed=42, total_ops=80)
        first = run_stress(config)
        second = run_stress(config)
        assert first.ok and second.ok
        assert first.schedule_digest == second.schedule_digest
        assert first.ops_executed == second.ops_executed

    def test_different_seeds_different_schedules(self):
        digests = {
            _digest(StressConfig(seed=seed, total_ops=80))
            for seed in range(5)
        }
        assert len(digests) == 5

    def test_schedule_is_pure_function_of_the_seed(self):
        config = StressConfig(seed=7, total_ops=60)
        assert _schedule(config) == _schedule(config)

    def test_pinned_schedule_digests_still_replay(self):
        """Replay lines printed by earlier releases name these schedules;
        the digests must not drift."""
        from repro.cluster.chaos import ChaosConfig

        assert _digest(StressConfig(seed=0, total_ops=200)) == (
            "85e0ba1c4a1223193186f16055bf510ac47c249c5c75716cf7582d54213ba266"
        )
        assert _digest(ChaosConfig(seed=7, total_ops=120)) == (
            "38714c2b228ca5cfc77a728237440a25abd574151afa5ed38dd161b5e1e0079a"
        )


class TestHarnessTeeth:
    def test_detects_seeded_race_when_lock_is_bypassed(self):
        assert negative_control_race(seed=0) is True

    def test_detects_lock_order_deadlock_via_deadline(self):
        assert negative_control_deadlock() is True

    def test_self_test_verdict_combines_all_controls(self):
        report = self_test(seed=0, total_ops=60)
        assert report.clean.ok
        assert report.race_detected
        assert report.deadlock_detected
        assert report.ok
        assert "negative control" in report.summary()


class TestReports:
    def test_faulty_stack_accounts_for_every_transient(self):
        report = run_stress(
            StressConfig(seed=3, total_ops=120, stack="faulty",
                         transient_rate=0.1)
        )
        assert report.ok, report.summary()
        assert report.counters["storage.faults.transients_injected"] > 0
        counters = report.counters
        assert (counters["storage.faults.retries"]
                == counters["storage.faults.transients_injected"])
        assert report.counters["storage.faults.giveups"] == 0

    def test_report_carries_lock_stats(self):
        report = run_stress(StressConfig(seed=1, total_ops=60))
        assert report.counters["concurrent.rwlock.writers_served"] > 0
        assert report.counters["concurrent.rwlock.queue_depth"] == 0
        assert report.elapsed > 0.0

    def test_disk_stack_cleans_up_and_passes(self):
        path = os.path.join(tempfile.mkdtemp(prefix="repro-st-"), "f.dsf")
        report = run_stress(
            StressConfig(seed=5, total_ops=60, stack="disk", path=path)
        )
        assert report.ok, report.summary()
        assert os.path.exists(path)  # the file survives for post-mortems


class TestCommandLineFronts:
    def test_repro_stress_subcommand_clean_run(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["stress", "--threads", "3", "--ops", "60", "--seed", "11"],
            out=out,
        )
        assert code == 0
        assert "CLEAN" in out.getvalue()

    def test_repro_stress_subcommand_self_test(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(["stress", "--self-test", "--ops", "60"], out=out)
        assert code == 0
        assert "negative control" in out.getvalue()

    def test_stress_tool_build_config_round_trip(self):
        """``tools/stress.py`` builds the disk stack's config (a fresh
        temp-dir path per seed) and runs it clean end to end."""
        result = subprocess.run(
            [
                sys.executable, TOOL, "--stack", "disk", "--threads", "3",
                "--ops", "50", "--fault-rate", "0.0", "--seed", "9",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "stress[disk] seed=9 threads=3: CLEAN" in result.stdout


def _schedule(config):
    """The schedule a stress or chaos config runs."""
    return build_schedule(
        config.seed,
        config.threads,
        config.total_ops,
        config.max_batch,
        insert_ratio=config.insert_ratio,
        key_space=config.key_space,
        read_fraction=config.read_fraction,
    )


def _digest(config):
    return schedule_digest(_schedule(config))


class TestReplayLine:
    def test_replay_argv_drops_sweep_flags_and_pins_the_seed(self):
        from repro.cli import replay_argv

        argv = [
            "stress", "--batch", "8", "--seconds=5", "--iter", "3",
            "--fault-rate", "0.2",
        ]
        assert replay_argv(argv, 42) == [
            "stress", "--batch", "8", "--fault-rate", "0.2", "--seed", "42",
        ]

    def test_replay_line_rebuilds_the_failing_run(self, monkeypatch):
        """The printed replay command parses to the failing run's exact
        config — ``--batch``/``--fault-rate`` included — and therefore
        to the same schedule."""
        from repro import cli
        from repro.concurrent import harness

        seen = []

        def failing(config):
            seen.append(config)
            return harness.StressReport(
                seed=config.seed, stack=config.stack, violations=["planted"]
            )

        monkeypatch.setattr(harness, "run_stress", failing)
        argv = [
            "stress", "--stack", "faulty", "--batch", "8", "--fault-rate",
            "0.2", "--threads", "3", "--ops", "50", "--iterations", "3",
        ]
        out = io.StringIO()
        assert cli.main(argv, out=out) == 3
        replay = [
            line for line in out.getvalue().splitlines()
            if line.startswith("replay: ")
        ]
        assert len(replay) == 1
        words = shlex.split(replay[0][len("replay: "):])
        assert words[:3] == ["python", "-m", "repro"]
        assert cli.main(words[3:], out=io.StringIO()) == 3
        failing_config, replayed_config = seen
        assert replayed_config == failing_config
        assert replayed_config.max_batch == 8
        assert replayed_config.transient_rate == 0.2
        assert _digest(replayed_config) == _digest(failing_config)
