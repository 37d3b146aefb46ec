"""Tests for the settings table (repro.settings) and its consumers."""

import argparse
import pathlib
import re

import pytest

from repro.analysis.cli import main
from repro.flow import Session
from repro.mig.kernel import resolve_sim_threads
from repro.settings import SETTINGS, positive_int

ENV_ROWS = [row for row in SETTINGS.values() if row.env]


def _threads(session):
    with session.activated():
        return resolve_sim_threads()


#: Per env-backed row: a valid value, what it resolves to (read back
#: through the session), and a garbage value (None: any string is valid).
CASES = {
    "backend": ("bigint", "bigint", lambda s: s.kernel.name, "gpu"),
    "sim_threads": ("3", 3, _threads, "x"),
    "arch": ("blocked", "blocked", lambda s: s.architecture.name, "nonesuch"),
    "source": ("adder", "adder", lambda s: s.default_source.name, "nope_x"),
    "opt": ("greedy:depth", "greedy:depth",
            lambda s: s.optimizer.label(), "warp-drive"),
    "timeouts": ("compile=40", "compile=40",
                 lambda s: s.timeouts.spec(), "compile=soon"),
    "cache_dir": ("cache-root", "cache-root", lambda s: s.cache_dir, None),
    "cache_url": ("http://127.0.0.1:9", "http://127.0.0.1:9",
                  lambda s: s.cache_url, None),
    "retries": ("4", 4, None, "lots"),
}

#: The three ways a session picks a setting up from the environment.
PATHS = {
    "from_env": Session.from_env,
    "from_args": lambda: Session.from_args(argparse.Namespace()),
    "ambient": Session,
}


@pytest.fixture(autouse=True)
def _no_ambient_settings(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # relative cache roots land here
    for row in ENV_ROWS:
        monkeypatch.delenv(row.env, raising=False)


def test_every_env_row_has_a_case():
    assert set(CASES) == {row.name for row in ENV_ROWS}


class TestEnvParsing:
    """One rule for every row and every path: the environment value is
    stripped, and garbage raises a ValueError naming the variable."""

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_padded_value_resolves_the_same_everywhere(
        self, monkeypatch, name, path
    ):
        row = SETTINGS[name]
        raw, expected, probe, _ = CASES[name]
        monkeypatch.setenv(row.env, f"  {raw}\t")
        assert row.value() == row.parse(raw)
        if probe is None:  # not a session setting
            return
        if path == "ambient" and not row.ambient:
            expected = None  # a bare session stays in-memory
        assert probe(PATHS[path]()) == expected

    @pytest.mark.parametrize(
        "name", sorted(n for n, case in CASES.items() if case[3])
    )
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_garbage_raises_naming_the_variable(
        self, monkeypatch, name, path
    ):
        row = SETTINGS[name]
        _, _, probe, garbage = CASES[name]
        monkeypatch.setenv(row.env, garbage)
        message = re.escape(f"${row.env}")
        with pytest.raises(ValueError, match=message):
            row.value()
        if probe is None:
            return
        with pytest.raises(ValueError, match=message):
            probe(PATHS[path]())

    def test_empty_value_is_unset(self, monkeypatch):
        for row in ENV_ROWS:
            monkeypatch.setenv(row.env, "  ")
            assert row.resolve()[1] == "default"


class TestResolution:
    def test_origins(self, monkeypatch):
        arch = SETTINGS["arch"]
        assert arch.resolve()[1] == "default"
        monkeypatch.setenv(arch.env, "blocked")
        assert arch.resolve()[1] == "env"
        value, origin = arch.resolve("dac16")
        assert (value.name, origin) == ("dac16", "flag")

    def test_explicit_garbage_names_the_flag(self):
        with pytest.raises(ValueError, match="--sim-threads"):
            SETTINGS["sim_threads"].value("0")

    def test_flag_only_rows_ignore_the_environment(self):
        for name in ("preset", "parallel"):
            assert SETTINGS[name].env is None
        assert SETTINGS["preset"].value() == "default"
        assert SETTINGS["parallel"].value() is None

    def test_session_round_trips_every_row(self, tmp_path):
        session = Session(
            preset="tiny", backend="bigint", sim_threads=2, arch="blocked",
            source="adder", opt="greedy", timeouts="9", parallel=3,
            cache_dir=tmp_path,
        )
        rebuilt = Session.from_spec(session.spec())
        for row in SETTINGS.values():
            if row.session and row.name not in ("parallel", "timeouts"):
                assert getattr(rebuilt, row.name) == getattr(session, row.name)
        assert rebuilt.timeouts == session.timeouts
        assert rebuilt.parallel is None  # workers never fan out again

    def test_unknown_session_keyword_rejected(self):
        with pytest.raises(TypeError, match="retries"):
            Session(retries=3)


class TestBenchParallel:
    """``$REPRO_BENCH_PARALLEL`` goes through the positive-int parser:
    a bad value raises instead of silently running serially."""

    def _parse(self, monkeypatch, raw):
        from benchmarks.conftest import _parallel_from_env

        monkeypatch.setenv("REPRO_BENCH_PARALLEL", raw)
        return _parallel_from_env()

    @pytest.mark.parametrize("bad", ["x", "-2", "0", "2.5"])
    def test_garbage_raises(self, monkeypatch, bad):
        with pytest.raises(ValueError, match=r"\$REPRO_BENCH_PARALLEL"):
            self._parse(monkeypatch, bad)

    def test_valid_counts(self, monkeypatch):
        assert self._parse(monkeypatch, " 3 ") == 3
        assert self._parse(monkeypatch, "1") is None  # serial
        assert self._parse(monkeypatch, "") is None

    def test_same_parser_as_sim_threads(self):
        with pytest.raises(ValueError, match="positive integer"):
            positive_int("count")("-1")


class TestConfigShow:
    def _rows(self, capsys, argv):
        assert main(["config", "show", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["setting", "value", "origin", "flag", "env"]
        return {line.split()[0]: line.split()[1:] for line in lines[1:]}

    def test_every_row_listed(self, capsys):
        rows = self._rows(capsys, [])
        assert list(rows) == list(SETTINGS)
        for name, row in SETTINGS.items():
            assert rows[name][2:] == [row.flag, f"${row.env}" if row.env else "-"]

    def test_origins(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", " bigint ")
        monkeypatch.setenv("REPRO_SIM_THREADS", "2")
        monkeypatch.setenv("REPRO_ARCH", "dac16")
        rows = self._rows(capsys, ["--arch", "blocked", "--retries", "5"])
        assert rows["backend"][:2] == ["bigint", "env"]
        assert rows["sim_threads"][:2] == ["2", "env"]
        assert rows["arch"][:2] == ["blocked", "flag"]
        assert rows["retries"][:2] == ["5", "flag"]
        assert rows["opt"][:2] == ["script", "default"]
        assert rows["preset"][:2] == ["default", "default"]
        assert rows["source"][:2] == ["none", "default"]

    def test_garbage_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "warp-drive")
        assert main(["config", "show"]) == 2
        assert "$REPRO_OPT" in capsys.readouterr().err


def test_readme_settings_table_lists_every_row():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Settings", 1)[1].split("\n## ", 1)[0]
    for row in SETTINGS.values():
        env = f"`${row.env}`" if row.env else "—"
        assert re.search(
            rf"^\| `{row.name}` \| `{row.flag}` \| {re.escape(env)} \|",
            section,
            re.MULTILINE,
        ), row.name
