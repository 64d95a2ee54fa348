"""The check of one command-line refusal, shared by the test modules."""

from fracext import cli

_KIND = {2: "usage error", 3: "domain error"}


def assert_cli_refusal(capsys, argv, exit_code, named):
    """``cli.main(argv)`` returns ``exit_code``, prints nothing on stdout and
    one line on stderr, which starts with ``usage error`` (exit 2) or
    ``domain error`` (exit 3) and contains ``named``."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (exit_code, "")
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith(_KIND[exit_code]) and named in err, err
