"""Integration tests for the command-line interface."""

import pytest

from repro.cli import _make_executor, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.snapshots == 4000

    def test_figure_arguments(self):
        args = build_parser().parse_args(
            [
                "--seed",
                "7",
                "figure4",
                "--topology",
                "planetlab",
                "--fraction",
                "0.5",
                "--scale",
                "small",
            ]
        )
        assert args.seed == 7
        assert args.topology == "planetlab"
        assert args.fraction == 0.5

    def test_invalid_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figure4", "--topology", "mesh"]
            )


class TestDistributedFlags:
    """Backend/hosts/launch precedence and the documented error paths."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)

    @staticmethod
    def _executor(argv):
        return _make_executor(build_parser().parse_args(argv))

    def test_hosts_flag_beats_repro_hosts_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "env-host:7100")
        executor = self._executor(
            ["figure3", "--hosts", "flag-host:7200"]
        )
        assert [spec.endpoint for spec in executor.endpoints] == [
            ("flag-host", 7200)
        ]

    def test_repro_hosts_env_implies_remote_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "env-host:7100,other:7101")
        executor = self._executor(["figure3"])
        assert [spec.endpoint for spec in executor.endpoints] == [
            ("env-host", 7100),
            ("other", 7101),
        ]

    def test_remote_backend_without_hosts_exits_with_message(self):
        with pytest.raises(SystemExit) as excinfo:
            self._executor(["figure3", "--backend", "remote"])
        assert "--hosts or REPRO_HOSTS" in str(excinfo.value)

    def test_malformed_hosts_exit_as_cli_error(self):
        with pytest.raises(SystemExit, match="duplicate"):
            self._executor(
                ["figure3", "--hosts", "a:7100,a:7100"]
            )

    def test_launch_local_builds_launcher_executor(self):
        executor = self._executor(
            [
                "figure3",
                "--launch",
                "local",
                "--launch-workers",
                "2",
                "--launch-capacity",
                "1,2",
            ]
        )
        assert executor.launcher is not None
        assert executor.launcher.capacities == [1, 2]
        assert executor.endpoints is None

    def test_launch_requires_remote_backend(self):
        with pytest.raises(SystemExit, match="--backend remote"):
            self._executor(
                ["figure3", "--backend", "serial", "--launch", "local"]
            )

    def test_launch_local_rejects_hosts(self):
        with pytest.raises(SystemExit, match="drop --hosts"):
            self._executor(
                [
                    "figure3",
                    "--launch",
                    "local",
                    "--hosts",
                    "a:7100",
                ]
            )

    def test_launch_local_rejects_env_hosts_too(self, monkeypatch):
        """REPRO_HOSTS must conflict the same way the flag does, not
        be silently dropped in favour of localhost subprocesses."""
        monkeypatch.setenv("REPRO_HOSTS", "a:7100")
        with pytest.raises(SystemExit, match="drop REPRO_HOSTS"):
            self._executor(["figure3", "--launch", "local"])

    def test_launch_ssh_needs_hosts(self):
        with pytest.raises(SystemExit, match="--launch ssh needs"):
            self._executor(["figure3", "--launch", "ssh"])

    def test_launch_ssh_rejects_launch_workers(self):
        """The ssh fleet size comes from --hosts; a conflicting
        --launch-workers must error, not silently launch 1 worker."""
        with pytest.raises(
            SystemExit, match="--launch-workers only applies"
        ):
            self._executor(
                [
                    "figure3",
                    "--launch",
                    "ssh",
                    "--hosts",
                    "a:7100",
                    "--launch-workers",
                    "4",
                ]
            )

    def test_launch_ssh_builds_launcher_from_hosts(self):
        executor = self._executor(
            [
                "figure3",
                "--launch",
                "ssh",
                "--hosts",
                "alice@a:7100,b:7200",
                "--launch-capacity",
                "4",
            ]
        )
        assert executor.launcher is not None
        targets = [spec.ssh_target for spec in executor.launcher.specs]
        assert targets == ["alice@a", "b"]
        assert executor.launcher.capacities == [4, 4]

    def test_launch_ssh_forwards_cache_dir_to_workers(self):
        """The figure's store doubles as the workers' shared store, so
        a killed sweep keeps every trial any worker finished."""
        executor = self._executor(
            [
                "figure3",
                "--launch",
                "ssh",
                "--hosts",
                "a:7100",
                "--cache-dir",
                "/shared/store",
            ]
        )
        assert str(executor.launcher.cache_dir) == "/shared/store"

    def test_launch_local_forwards_cache_dir_to_workers(self):
        executor = self._executor(
            [
                "figure3",
                "--launch",
                "local",
                "--cache-dir",
                "/tmp/store",
            ]
        )
        assert str(executor.launcher.cache_dir) == "/tmp/store"

    def test_launch_flags_without_launch_are_rejected(self):
        """Fleet-shape flags must not be silently ignored just because
        --launch was forgotten."""
        with pytest.raises(SystemExit, match="require\\s+--launch"):
            self._executor(
                [
                    "figure3",
                    "--hosts",
                    "a:7100",
                    "--launch-capacity",
                    "8",
                ]
            )
        with pytest.raises(SystemExit, match="require\\s+--launch"):
            self._executor(
                ["figure3", "--backend", "serial", "--launch-workers", "4"]
            )

    @pytest.mark.parametrize("value", ["0", "1,-2", "nope", "1,2,3"])
    def test_bad_launch_capacity_rejected(self, value):
        with pytest.raises(SystemExit, match="--launch-capacity"):
            self._executor(
                [
                    "figure3",
                    "--launch",
                    "local",
                    "--launch-workers",
                    "2",
                    "--launch-capacity",
                    value,
                ]
            )

    def test_straggler_timeout_reaches_executor(self):
        argv = ["figure3", "--hosts", "a:7100", "--straggler-timeout"]
        assert self._executor(argv + ["5"]).straggler_timeout == 5.0
        # 0 means no speculation, the same as leaving the flag unset.
        assert self._executor(argv + ["0"]).straggler_timeout is None

    def test_negative_straggler_timeout_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["figure3", "--hosts", "a:7100", "--straggler-timeout", "-3"]
            )
        assert excinfo.value.code == 2
        assert "straggler-timeout must be >= 0" in capsys.readouterr().err

    def test_straggler_timeout_rejected_off_remote(self):
        """Like its remote-only siblings, the flag is refused where no
        worker fleet exists instead of being silently ignored."""
        with pytest.raises(SystemExit, match="--straggler-timeout"):
            self._executor(
                [
                    "figure3",
                    "--trials",
                    "1",
                    "--backend",
                    "serial",
                    "--straggler-timeout",
                    "5",
                ]
            )


class TestSecurityFlags:
    """--secret-file/--tls-* resolution, guards, and executor wiring."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in (
            "REPRO_HOSTS",
            "REPRO_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_DIST_SECRET",
            "REPRO_DIST_TLS_CERT",
            "REPRO_DIST_TLS_KEY",
            "REPRO_DIST_TLS_CA",
        ):
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def _executor(argv):
        return _make_executor(build_parser().parse_args(argv))

    @pytest.fixture()
    def secret_file(self, tmp_path):
        path = tmp_path / "secret"
        path.write_text("cli-test-token\n")
        return str(path)

    def test_secret_file_reaches_executor(self, secret_file):
        executor = self._executor(
            [
                "figure3",
                "--hosts",
                "a:7100",
                "--secret-file",
                secret_file,
            ]
        )
        assert executor.secret == b"cli-test-token"
        assert executor.ssl_context is None

    def test_env_secret_reaches_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_SECRET", "env-token")
        executor = self._executor(["figure3", "--hosts", "a:7100"])
        assert executor.secret == b"env-token"

    def test_security_flags_rejected_off_remote(self, secret_file):
        with pytest.raises(SystemExit, match="only\\s+apply"):
            self._executor(
                [
                    "figure3",
                    "--backend",
                    "serial",
                    "--secret-file",
                    secret_file,
                ]
            )
        with pytest.raises(SystemExit, match="only\\s+apply"):
            self._executor(
                ["figure3", "--tls-ca", "/ca.pem"]
            )  # no backend at all resolves to serial/local

    def test_tls_cert_without_key_rejected(self):
        with pytest.raises(SystemExit, match="together"):
            self._executor(
                [
                    "figure3",
                    "--hosts",
                    "a:7100",
                    "--tls-cert",
                    "/cert.pem",
                ]
            )

    def test_missing_secret_file_is_clean_error(self):
        with pytest.raises(SystemExit, match="error"):
            self._executor(
                [
                    "figure3",
                    "--hosts",
                    "a:7100",
                    "--secret-file",
                    "/nonexistent/secret",
                ]
            )

    def test_launch_with_ca_only_rejected(self, tmp_path):
        from repro.eval.dist.certs import generate_self_signed

        paths = generate_self_signed(tmp_path / "tls")
        with pytest.raises(SystemExit, match="--tls-cert"):
            self._executor(
                [
                    "figure3",
                    "--launch",
                    "local",
                    "--tls-ca",
                    str(paths.cert),
                ]
            )

    def test_launch_local_threads_secret_and_tls(
        self, secret_file, tmp_path
    ):
        from repro.eval.dist.certs import generate_self_signed

        paths = generate_self_signed(tmp_path / "tls")
        executor = self._executor(
            [
                "figure3",
                "--launch",
                "local",
                "--secret-file",
                secret_file,
                "--tls-cert",
                str(paths.cert),
                "--tls-key",
                str(paths.key),
                "--tls-ca",
                str(paths.cert),
            ]
        )
        assert executor.secret == b"cli-test-token"
        assert executor.ssl_context is not None
        assert executor.launcher.secret == "cli-test-token"
        assert executor.launcher.tls_cert == str(paths.cert)
        assert executor.launcher.tls_key == str(paths.key)

    def test_worker_tls_ca_without_cert_rejected(self):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit, match="--tls-cert"):
            cli_main(["worker", "--tls-ca", "/ca.pem"])

    def test_worker_parses_security_flags(self):
        args = build_parser().parse_args(
            [
                "worker",
                "--secret-file",
                "/secret",
                "--tls-cert",
                "/cert.pem",
                "--tls-key",
                "/key.pem",
                "--secret-stdin",
            ]
        )
        assert args.secret_file == "/secret"
        assert args.secret_stdin is True
        assert args.tls_cert == "/cert.pem"


class TestWorkerSubcommand:
    def test_defaults(self):
        args = build_parser().parse_args(["worker"])
        assert args.port == 0
        assert args.capacity == 0  # auto: one slot per CPU core
        assert not args.exit_on_stdin_close

    @pytest.mark.parametrize("port", ["-1", "65536", "notaport"])
    def test_bad_ports_rejected(self, port):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--port", port])

    @pytest.mark.parametrize("capacity", ["-2", "nope"])
    def test_bad_capacities_rejected(self, capacity):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--capacity", capacity]
            )

    @pytest.mark.parametrize("throttle", ["-1", "nope"])
    def test_bad_throttle_rejected(self, throttle):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--throttle", throttle]
            )


class TestExecution:
    def test_demo_runs(self, capsys):
        exit_code = main(["demo", "--snapshots", "500"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "correlation" in output
        assert "e1" in output

    @pytest.fixture()
    def tiny_scales(self, monkeypatch):
        """Shrink the small preset so CLI tests stay fast."""
        from repro.eval import figures

        tiny = dict(figures.SCALES)
        tiny["small"] = {
            "brite": dict(n_ases=25, routers_per_as=4, n_paths=60),
            "planetlab": dict(
                n_routers=80, n_vantages=14, n_paths=60
            ),
            "n_snapshots": 200,
            "packets_per_path": 200,
        }
        monkeypatch.setattr(figures, "SCALES", tiny)

    def test_figure3_cdf_runs_small(self, capsys, tiny_scales):
        exit_code = main(["figure3-cdf", "--level", "high"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cdf[correlation]" in output

    def test_tomographer_runs_small(self, capsys, tiny_scales):
        exit_code = main(["tomographer", "--topology", "planetlab"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "indirect validation prefers" in output

    def test_figure3_sweep_runs_small(self, capsys, tiny_scales):
        exit_code = main(["figure3"])
        assert exit_code == 0
        assert "mean[corr]" in capsys.readouterr().out

    def test_figure4_runs_small(self, capsys, tiny_scales):
        exit_code = main(
            ["figure4", "--topology", "brite", "--fraction", "0.25"]
        )
        assert exit_code == 0
        assert "cdf[correlation]" in capsys.readouterr().out

    def test_figure5_runs_small(self, capsys, tiny_scales):
        exit_code = main(
            ["figure5", "--topology", "planetlab", "--fraction", "0.5"]
        )
        assert exit_code == 0
        assert "cdf[independence]" in capsys.readouterr().out
