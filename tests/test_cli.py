"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.rta.compiled import DEFAULT_KERNEL, kernel_available


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.trials == 35
        assert args.horizon == 45_000

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["fig7a", "--cores", "4", "--tasksets-per-group", "7", "--jobs", "3"]
        )
        assert args.cores == 4
        assert args.tasksets_per_group == 7
        assert args.jobs == 3

    def test_invalid_core_count_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--cores", "3"])

    def test_sweep_arguments_and_defaults(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--cores",
                "4",
                "--checkpoint",
                "run.jsonl",
                "--chunk-size",
                "7",
                "--report",
                "fig7a",
            ]
        )
        assert args.cores == 4
        assert args.checkpoint == "run.jsonl"
        assert args.chunk_size == 7
        assert args.report == "fig7a"
        defaults = build_parser().parse_args(["sweep"])
        assert defaults.checkpoint is None
        assert defaults.report == "all"
        assert not defaults.quiet

    def test_sweep_rejects_unknown_report(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--report", "fig5"])

    def test_schemes_option_default_and_parse(self):
        assert build_parser().parse_args(["sweep"]).schemes is None
        args = build_parser().parse_args(
            ["sweep", "--schemes", "HYDRA-C,HYDRA-RF"]
        )
        assert args.schemes == "HYDRA-C,HYDRA-RF"

    def test_schemes_subcommand_parses(self):
        assert build_parser().parse_args(["schemes"]).command == "schemes"

    def test_search_mode_default_and_parse(self):
        for command in ("fig6", "fig7a", "fig7b", "sweep"):
            assert build_parser().parse_args([command]).search_mode == "binary"
        args = build_parser().parse_args(["sweep", "--search-mode", "linear"])
        assert args.search_mode == "linear"

    def test_unknown_search_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--search-mode", "quadratic"])

    @pytest.mark.parametrize(
        "argv",
        [["sweep"], ["fig6"], ["fig7a"], ["fig7b"], ["serve", "--stdio"]],
    )
    def test_kernel_flag_defaults_to_the_default_tier(self, argv):
        assert build_parser().parse_args(argv).kernel == DEFAULT_KERNEL

    @pytest.mark.parametrize("command", ["fig5", "campaign"])
    def test_fig5_and_campaign_take_no_kernel_flag(self, command):
        assert not hasattr(build_parser().parse_args([command]), "kernel")
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--kernel", "auto"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.trials == 35
        assert args.horizon == 45_000
        assert args.backend == "batch"
        assert args.jitter == 0
        assert args.checkpoint is None
        assert args.chunk_size == 8

    def test_campaign_rejects_unknown_backend(self, capsys):
        """--backend is validated against the simulator registry at spec
        build (not argparse choices, so new backends list themselves):
        unknown names keep the one-line error style."""
        args = build_parser().parse_args(["campaign", "--backend", "warp"])
        assert args.backend == "warp"  # parse accepts; validation is later
        exit_code = main(["campaign", "--backend", "warp", "--trials", "1"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "warp" in captured.err
        assert "batch" in captured.err  # available backends are listed
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "knob",
        [
            ["--max-contexts", "-1"],
            ["--timeout", "0"],
            ["--timeout", "-3"],
        ],
    )
    def test_serve_rejects_bad_knobs_with_one_line_error(self, capsys, knob):
        exit_code = main(["serve", "--stdio", "--quiet", *knob])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert knob[1] in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--seed", "-1"]
            for command in ("sweep", "fig6", "fig7a", "fig7b", "campaign", "fig5")
        ]
        + [
            ["fig5", "--trials", "0"],
            ["fig5", "--trials", "-3"],
            ["fig5", "--horizon", "0"],
            # Beyond int64, where the trial draws would crash.
            ["campaign", "--jitter", "100000000000000000000", "--trials", "1",
             "--horizon", "2000"],
            ["campaign", "--horizon", "100000000000000000000", "--trials", "1"],
            ["fig5", "--horizon", "100000000000000000000", "--trials", "1"],
        ],
    )
    def test_bad_seed_and_fig5_bounds_are_one_line_errors(self, capsys, argv):
        exit_code = main(argv)
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestMain:
    def test_fig5_small_run(self, capsys):
        exit_code = main(["fig5", "--trials", "2", "--horizon", "20000", "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "HYDRA-C" in output and "HYDRA" in output
        assert "context" in output.lower()

    def test_fig6_small_run(self, capsys):
        exit_code = main(
            ["fig6", "--cores", "2", "--tasksets-per-group", "1", "--seed", "5"]
        )
        assert exit_code == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_sweep_prints_all_figures_and_progress(self, capsys):
        exit_code = main(
            ["sweep", "--tasksets-per-group", "1", "--seed", "5", "--chunk-size", "5"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Fig. 6" in captured.out
        assert "Fig. 7a" in captured.out
        assert "Fig. 7b" in captured.out
        assert "sweep: chunk" in captured.err

    def test_sweep_single_report_quiet(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--tasksets-per-group",
                "1",
                "--seed",
                "5",
                "--report",
                "fig7a",
                "--quiet",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Fig. 7a" in captured.out
        assert "Fig. 6" not in captured.out
        assert captured.err == ""

    def test_schemes_listing(self, capsys):
        from repro.schemes import REGISTRY

        assert main(["schemes"]) == 0
        output = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in output

    def test_sweep_with_variant_schemes(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--tasksets-per-group",
                "1",
                "--seed",
                "5",
                "--schemes",
                "HYDRA-RF,GLOBAL-TMax",
                "--report",
                "fig7a",
                "--quiet",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "HYDRA-RF" in output and "GLOBAL-TMax" in output

    def test_sweep_without_hydra_c_drops_hydra_c_figures(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--tasksets-per-group",
                "1",
                "--seed",
                "5",
                "--schemes",
                "GLOBAL-TMax",
                "--quiet",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Fig. 7a" in captured.out
        assert "Fig. 6" not in captured.out
        assert "Fig. 7b" not in captured.out

    def test_unknown_scheme_is_a_clean_one_line_error(self, capsys):
        exit_code = main(
            ["sweep", "--tasksets-per-group", "1", "--schemes", "NOT-A-SCHEME"]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "NOT-A-SCHEME" in captured.err
        assert "Traceback" not in captured.err

    def test_fig6_requires_hydra_c_in_schemes(self, capsys):
        exit_code = main(
            [
                "fig6",
                "--tasksets-per-group",
                "1",
                "--schemes",
                "GLOBAL-TMax",
            ]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "HYDRA-C" in captured.err

    def test_fig7b_requires_hydra_too(self, capsys):
        """Fig. 7b's first series compares HYDRA-C against HYDRA, so a
        selection without HYDRA must fail fast instead of printing NaNs."""
        exit_code = main(
            [
                "sweep",
                "--tasksets-per-group",
                "1",
                "--schemes",
                "HYDRA-C,GLOBAL-TMax",
                "--report",
                "fig7b",
                "--quiet",
            ]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "HYDRA" in captured.err
        # report=all with the same selection drops fig7b but keeps fig6.
        assert (
            main(
                [
                    "sweep",
                    "--tasksets-per-group",
                    "1",
                    "--seed",
                    "5",
                    "--schemes",
                    "HYDRA-C,GLOBAL-TMax",
                    "--quiet",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Fig. 6" in output and "Fig. 7a" in output
        assert "Fig. 7b" not in output

    def test_sweep_mismatched_checkpoint_is_a_clean_error(self, capsys, tmp_path):
        checkpoint = tmp_path / "cli.jsonl"
        base = [
            "sweep",
            "--tasksets-per-group",
            "1",
            "--checkpoint",
            str(checkpoint),
            "--quiet",
        ]
        assert main(base + ["--seed", "5"]) == 0
        capsys.readouterr()
        exit_code = main(base + ["--seed", "6"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "different sweep configuration" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_search_modes_print_identical_tables(self, capsys):
        """Binary and linear Algorithm 2 select identical periods, so the
        figure tables must match; only the checkpoint fingerprint differs."""
        base = [
            "sweep",
            "--tasksets-per-group",
            "1",
            "--seed",
            "9",
            "--report",
            "fig7a",
            "--quiet",
        ]
        assert main(base) == 0
        binary_out = capsys.readouterr().out
        assert main(base + ["--search-mode", "linear"]) == 0
        linear_out = capsys.readouterr().out
        assert binary_out == linear_out

    def test_sweep_checkpoint_rejects_other_search_mode(self, capsys, tmp_path):
        checkpoint = tmp_path / "mode.jsonl"
        base = [
            "sweep",
            "--tasksets-per-group",
            "1",
            "--seed",
            "9",
            "--checkpoint",
            str(checkpoint),
            "--quiet",
        ]
        assert main(base) == 0
        capsys.readouterr()
        exit_code = main(base + ["--search-mode", "linear"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "different sweep configuration" in captured.err
        assert "Traceback" not in captured.err

    def test_campaign_small_run(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--trials",
                "2",
                "--horizon",
                "9000",
                "--schemes",
                "HYDRA-C,HYDRA",
                "--jitter",
                "50",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Monte Carlo attack campaign" in captured.out
        assert "HYDRA-C" in captured.out
        assert "jitter=uniform:50" in captured.out
        assert "campaign: chunk" in captured.err

    def test_campaign_stats_line_counts_compiled_trials(self, capsys):
        argv = ["campaign", "--trials", "2", "--horizon", "6000", "--schemes",
                "HYDRA-C,HYDRA", "--quiet", "--stats"]
        assert main(argv) == 0
        compiled = 4 if kernel_available() else 0
        assert capsys.readouterr().err == (
            "campaign: 0 design-dedup hits, 4 batched "
            f"({compiled} compiled) / 0 fallback design-trials\n"
        )

    def test_campaign_backends_print_identical_reports(self, capsys):
        argv = ["campaign", "--trials", "2", "--horizon", "6000", "--schemes",
                "HYDRA-C,HYDRA", "--quiet"]
        assert main(argv + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert main(argv + ["--backend", "tick"]) == 0
        assert capsys.readouterr().out == fast_out
        assert main(argv) == 0  # the default backend, batch
        assert capsys.readouterr().out == fast_out

    def test_campaign_checkpoint_resume_roundtrip(self, capsys, tmp_path):
        checkpoint = tmp_path / "camp.jsonl"
        argv = [
            "campaign",
            "--trials",
            "3",
            "--horizon",
            "6000",
            "--schemes",
            "HYDRA-C",
            "--checkpoint",
            str(checkpoint),
            "--quiet",
        ]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        first_bytes = checkpoint.read_bytes()
        assert main(argv) == 0
        assert capsys.readouterr().out == first_out
        assert checkpoint.read_bytes() == first_bytes

    def test_campaign_mismatched_checkpoint_is_a_clean_error(self, capsys, tmp_path):
        checkpoint = tmp_path / "camp.jsonl"
        base = [
            "campaign",
            "--trials",
            "2",
            "--horizon",
            "6000",
            "--schemes",
            "HYDRA-C",
            "--checkpoint",
            str(checkpoint),
            "--quiet",
        ]
        assert main(base + ["--seed", "5"]) == 0
        capsys.readouterr()
        exit_code = main(base + ["--seed", "6"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "different campaign" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_checkpoint_resume_roundtrip(self, capsys, tmp_path):
        checkpoint = tmp_path / "cli.jsonl"
        argv = [
            "sweep",
            "--tasksets-per-group",
            "1",
            "--seed",
            "5",
            "--chunk-size",
            "4",
            "--checkpoint",
            str(checkpoint),
            "--report",
            "fig7a",
            "--quiet",
        ]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        first_bytes = checkpoint.read_bytes()
        # Rerunning resumes from the (complete) checkpoint: same table, no
        # new writes.
        assert main(argv) == 0
        assert capsys.readouterr().out == first_out
        assert checkpoint.read_bytes() == first_bytes

    CHECKPOINT_COMMANDS = {
        "sweep": ["sweep", "--tasksets-per-group", "1", "--quiet"],
        "campaign": ["campaign", "--trials", "2", "--horizon", "6000",
                     "--schemes", "HYDRA-C", "--quiet"],
    }

    @pytest.mark.parametrize("command", ["sweep", "campaign"])
    @pytest.mark.parametrize("prefix", ["jsonl:", "sqlite:", "shards:"])
    def test_former_checkpoint_prefix_is_a_clean_error(
        self, capsys, tmp_path, monkeypatch, command, prefix
    ):
        """A checkpoint URI of the removed backends exits 2 with one
        ``error:`` line naming the plain-path form, and creates nothing."""
        monkeypatch.chdir(tmp_path)
        argv = self.CHECKPOINT_COMMANDS[command] + ["--checkpoint", f"{prefix}run.db"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "plain path" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "campaign"])
    def test_binary_checkpoint_is_a_clean_error(
        self, capsys, binary_file, command
    ):
        """A checkpoint path holding a database or an image exits 2 with
        the one-line refusal, not a decode traceback, and is left as
        found."""
        before = binary_file.read_bytes()
        argv = self.CHECKPOINT_COMMANDS[command] + ["--checkpoint", str(binary_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: checkpoint {binary_file} exists but is not a {command} "
            "checkpoint; refusing to overwrite it\n"
        )
        assert binary_file.read_bytes() == before

    @pytest.mark.parametrize(
        "command,record",
        [
            ("sweep", '{"kind":"result"}'),
            ("campaign", '{"kind":"result","trial":7}'),
        ],
    )
    def test_malformed_checkpoint_record_is_a_clean_error(
        self, capsys, tmp_path, command, record
    ):
        """A result record the store cannot decode exits 2 with one
        ``error:`` line naming the file and the record, not a traceback,
        and leaves the checkpoint as found."""
        checkpoint = tmp_path / "run.jsonl"
        argv = self.CHECKPOINT_COMMANDS[command] + ["--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        capsys.readouterr()
        with checkpoint.open("a") as handle:
            handle.write(record + "\n")
        before = checkpoint.read_bytes()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: checkpoint {checkpoint} holds a malformed {command} "
            f"record {record!r} ("
        )
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert checkpoint.read_bytes() == before

    @pytest.mark.parametrize("command", ["sweep", "campaign"])
    def test_directory_checkpoint_is_a_clean_error(
        self, capsys, tmp_path, command
    ):
        """Regression: a directory as --checkpoint ended in an
        IsADirectoryError traceback."""
        folder = tmp_path / "runs"
        folder.mkdir()
        (folder / "keep.txt").write_text("mine\n")
        argv = self.CHECKPOINT_COMMANDS[command] + ["--checkpoint", str(folder)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {folder} is a directory; --checkpoint takes "
            "a path to a JSONL file\n"
        )
        assert [entry.name for entry in folder.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("command", ["sweep", "campaign"])
    def test_checkpoint_under_a_regular_file_is_a_clean_error(
        self, capsys, tmp_path, command
    ):
        """Regression: a --checkpoint whose parent is a regular file ended
        in a FileExistsError traceback."""
        blocker = tmp_path / "notes.txt"
        blocker.write_text("mine\n")
        checkpoint = blocker / "run.jsonl"
        argv = self.CHECKPOINT_COMMANDS[command] + ["--checkpoint", str(checkpoint)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot use checkpoint {checkpoint}: {blocker} is not a "
            "directory\n"
        )
        assert blocker.read_text() == "mine\n"


def _listing(text: str) -> str:
    """Expected stdout of a listing command; each line of *text* ends in a
    ``|`` marker so its trailing blanks survive editors."""
    lines = text.strip("\n").split("\n")
    assert all(line.endswith("|") for line in lines)
    return "".join(line[:-1] + "\n" for line in lines)


# The three listings' exact output (``kernels`` under a fixed status
# report: its real detail names this host's kernel cache).
SCHEMES_LISTING = _listing(
    """
scheme       policy            adapts periods  origin     shared phases                                            description                                                                              |
HYDRA-C      semi-partitioned  yes             canonical  eq1_rt_check,rt_partition                                semi-partitioned, migrating security tasks, adapted periods (the paper's contribution)   |
HYDRA        partitioned       yes             canonical  eq1_rt_check,maxperiod_security_allocation,rt_partition  fully partitioned best-fit allocation, per-core adapted periods (prior work)             |
GLOBAL-TMax  global            no              canonical  -                                                        global fixed-priority scheduling, periods pinned to the maxima                           |
HYDRA-TMax   partitioned       no              canonical  eq1_rt_check,maxperiod_security_allocation,rt_partition  HYDRA allocation, periods pinned to the maxima                                           |
HYDRA-C-FF   semi-partitioned  yes             variant    -                                                        HYDRA-C re-partitioning the RT tasks first-fit instead of honouring the legacy allocation|
HYDRA-C-WF   semi-partitioned  yes             variant    -                                                        HYDRA-C re-partitioning the RT tasks worst-fit (load-balanced cores)                     |
HYDRA-C-GC   semi-partitioned  yes             variant    eq1_rt_check,rt_partition                                HYDRA-C with the always-greedy (never-optimistic, faster) Eq. 8 carry-in bound           |
HYDRA-RF     partitioned       yes             variant    eq1_rt_check,rt_partition                                HYDRA with a deterministic random-fit allocation (lower bound on the packing heuristic)  |
"""
)

KERNELS_LISTING = _listing(
    """
kernel    available  detail                                              |
python    yes        pure-python reference kernel tier (always available)|
compiled  no         unavailable: disabled by REPRO_DISABLE_COMPILED     |
"""
)

BACKENDS_LISTING = _listing(
    """
backend  class                                    description                                                                                           |
tick     repro.sim.engine.Simulator               tick-accurate oracle (slow; the frozen reference)                                                     |
fast     repro.sim.fast.EventCompressedSimulator  event-compressed (jumps between scheduling events)                                                    |
batch    repro.sim.batched.TrialBatchedSimulator  trace-free event loop per campaign trial (campaign default; falls back to 'fast' outside its envelope)|
"""
)

FIXED_KERNEL_STATUS = {
    "python": {
        "available": True,
        "detail": "pure-python reference kernel tier (always available)",
    },
    "compiled": {
        "available": False,
        "detail": "unavailable: disabled by REPRO_DISABLE_COMPILED",
    },
}


class TestListings:
    @pytest.mark.parametrize(
        "command,expected",
        [
            ("schemes", SCHEMES_LISTING),
            ("kernels", KERNELS_LISTING),
            ("backends", BACKENDS_LISTING),
        ],
    )
    def test_listing_is_pinned(self, capsys, monkeypatch, command, expected):
        import repro.rta

        monkeypatch.setattr(repro.rta, "kernel_status", lambda: FIXED_KERNEL_STATUS)
        assert main([command]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""
