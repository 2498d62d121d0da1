"""Checks of timed outputs against the library reference.

The reference (refs.json) is computed by `gvabench_harness ref` once per
seed, before any timing. Each check returns None when the output matches
and a one-line reason when it does not.
"""


def stable_cli_text(text):
    """gva_cli's table without the distance-call line.

    With --threads 2 the count depends on how the two search threads
    interleave (the discords themselves are thread-count invariant), so it
    is the one line that may differ from the library call.
    """
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("distance calls:"))


def check_cli(stdout, ref):
    if stable_cli_text(stdout) != stable_cli_text(ref["stdout"]):
        return "gva_cli output differs from the library reference"
    return None


def check_job(job, ref):
    """`job` is the parsed body of GET /v1/jobs/{id} in state done."""
    if job.get("state") != "done":
        return "job ended in state %r: %s" % (job.get("state"),
                                             job.get("error", ""))
    if job.get("result") != ref["result"]:
        return "job result differs from RunDetectionJob"
    return None


def check_report(report, ref_report):
    if report != ref_report:
        return "stream report differs from StreamingAnomalyMonitor"
    return None
