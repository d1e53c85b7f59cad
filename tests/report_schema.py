"""The ``report/1`` schema the CLI's reports follow, checked in the tests."""

# Keys every report of a command has, and every suite record of a check report.
REPORT_KEYS = {
    "check": {"format", "command", "seed", "trials", "suites", "pass"},
    "fit": {"format", "command", "train_mse", "test_mse", "prediction_invariance_residual"},
}
SUITE_KEYS = {"suite", "trials", "max_residual", "tolerance", "pass"}


def assert_report(doc: dict) -> None:
    """Assert that ``doc`` is a ``report/1`` document of a known command."""
    assert doc.get("format") == "report/1", doc.get("format")
    assert REPORT_KEYS[doc.get("command")] <= doc.keys()
    for rec in doc["suites"] if doc["command"] == "check" else ():
        assert SUITE_KEYS <= rec.keys(), rec
