"""The one CLI contract of the four nclc subcommands (repro.nclc.cli).

Every subcommand reads its input, parses ``-D`` / ``--window`` and turns
its outcome into an exit code through the same skeleton, so the contract
is checked once, over all four: 0 success, 1 findings, 2 "could not run
as asked" with ``error: ...`` on stderr and no traceback.
"""

from pathlib import Path

import pytest

from repro.nclc.__main__ import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

#: one dead store: a warning and nothing else under ``lint``
WARN_NCL = "_net_ _out_ void k(int *d) { int h = 0; h = d[0]; d[1] = h; }\n"
#: INT headroom short of the policy cap (NCL0941): a warning and nothing
#: else under ``check-deploy``
WARN_DEPLOY = (
    "switch sw0 profile=bmv2\n"
    "host sender\nhost sink\n"
    "link sender sw0 mtu=128\nlink sink sw0 mtu=128\n"
    f"tenant dedup {REPO}/examples/deploy/dedup.ncl "
    f"and={REPO}/examples/deploy/dedup.and\n"
    "define dedup FILTER_BITS=1024\n"
    "window dedup dedup=1,4\n"
    "map dedup s1=sw0\n"
)
BROKEN_NCL = "_net_ _out_ void k(int *d) { d[0] = ; }\n"

#: per subcommand: an input that succeeds and one with error-level
#: findings (for ``build``: one that does not compile)
COMMANDS = {
    "build": {
        "clean": "examples/stats.ncl",
        "findings": BROKEN_NCL,
    },
    "lint": {
        "clean": "examples/stats.ncl",
        "findings": "examples/lint_demo.ncl",
    },
    "check-deploy": {
        "clean": "examples/deploy/multi_tenant.deploy",
        "findings": "tests/data/deploy/over_capacity.deploy",
    },
    "check-proto": {
        "clean": "examples/parity.ncl",
        "findings": "tests/data/proto/unsafe_counter.ncl",
    },
}


def run(command, tmp_path, target, *flags):
    """Exit code of ``nclc <command> <target> <flags>``; *target* is a
    repo-relative path or, when it is not one, source text to write."""
    if "\n" in target:
        path = tmp_path / "input.txt"
        path.write_text(target)
    else:
        path = REPO / target
    out = ["-o", str(tmp_path / "out")] if command == "build" else []
    return main([command, str(path), *out, *flags])


@pytest.mark.parametrize("command", COMMANDS)
class TestExitCodes:
    def test_clean_input_exits_zero(self, command, tmp_path, capsys):
        assert run(command, tmp_path, COMMANDS[command]["clean"]) == 0
        assert capsys.readouterr().err == ""

    def test_findings_exit_one(self, command, tmp_path, capsys):
        assert run(command, tmp_path, COMMANDS[command]["findings"]) == 1

    def test_unreadable_input_exits_two(self, command, tmp_path, capsys):
        assert run(command, tmp_path, "no/such/input") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and "Traceback" not in err


# check-deploy takes its defines and windows from the manifest
@pytest.mark.parametrize("command", ["build", "lint", "check-proto"])
def test_malformed_define_exits_two(command, tmp_path, capsys):
    clean = COMMANDS[command]["clean"]
    assert run(command, tmp_path, clean, "-D", "JUNK") == 2
    assert capsys.readouterr().err == "error: expected NAME=VALUE, got 'JUNK'\n"
    assert run(command, tmp_path, clean, "-D", "N=x") == 2
    assert capsys.readouterr().err == "error: bad value in 'N=x'\n"


@pytest.mark.parametrize("command", ["build", "check-proto"])
def test_malformed_window_exits_two(command, tmp_path, capsys):
    clean = COMMANDS[command]["clean"]
    assert run(command, tmp_path, clean, "--window", "k=a") == 2
    assert capsys.readouterr().err == "error: bad window spec 'k=a'\n"


class TestWerror:
    """``--werror`` promotes warnings before the exit code is decided."""

    @pytest.mark.parametrize("command,source,code", [
        ("lint", WARN_NCL, "NCL0703"),
        ("check-deploy", WARN_DEPLOY, "NCL0941"),
    ])
    def test_warning_only_report_exits_zero_until_werror(
        self, command, source, code, tmp_path, capsys
    ):
        assert run(command, tmp_path, source) == 0
        assert f"warning[{code}]" in capsys.readouterr().out
        assert run(command, tmp_path, source, "--werror") == 1
        assert f"error[{code}]" in capsys.readouterr().out

    def test_check_proto_promotes_too(self, tmp_path, capsys):
        """check-proto cannot report a warning alone (an update it warns
        about is one the window model then double-applies), so promotion
        shows in the rendered severity, not in the exit code."""
        unsafe = COMMANDS["check-proto"]["findings"]
        assert run("check-proto", tmp_path, unsafe) == 1
        assert "warning[NCL0851]" in capsys.readouterr().out
        assert run("check-proto", tmp_path, unsafe, "--werror") == 1
        assert "error[NCL0851]" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["lint", "check-deploy", "check-proto"])
    def test_clean_input_survives_werror(self, command, tmp_path):
        assert run(command, tmp_path, COMMANDS[command]["clean"], "--werror") == 0


@pytest.mark.parametrize("command", ["lint", "check-deploy", "check-proto"])
def test_list_rules_is_byte_stable(command, capsys):
    """``--list-rules`` text as captured before the three registries
    became one class: lint pads its codes to 30 columns, the other two
    to 46, and each checker lists the ones after it under a heading."""
    assert main([command, "--list-rules"]) == 0
    expected = (GOLDEN / f"list_rules_{command}.txt").read_text()
    assert capsys.readouterr().out == expected
