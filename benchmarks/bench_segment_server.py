"""S6 — Segment servers: per-seal costs of the append-only log.

Section 6's "user-level segment servers which control the semantics and
the protection for each segment", measured on the log policy: sealing a
page costs a pair of per-appender PLB updates on the domain-page models
versus two page-to-group moves (independent of the appender count) on
the page-group model — the same Table 1 shape, arising in an OS service
the paper only sketches.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.os.kernel import MODELS, Kernel
from repro.os.segserver import AppendOnlyLogServer, SegmentServerRegistry
from repro.sim.machine import Machine

LOG_PAGES = 16
RECORD = 512


def run_log(model: str, appenders: int):
    kernel = Kernel(model)
    machine = Machine(kernel)
    registry = SegmentServerRegistry(kernel)
    segment = kernel.create_segment("log", LOG_PAGES)
    log = AppendOnlyLogServer(kernel, registry, segment)
    writers = [kernel.create_domain(f"w{i}") for i in range(appenders)]
    for writer in writers:
        log.admit(writer)
    before = kernel.stats.snapshot()
    params = kernel.params
    records_per_page = params.page_size // RECORD
    total_records = (LOG_PAGES - 1) * records_per_page
    for record in range(total_records):
        writer = writers[record % appenders]
        machine.write(
            writer, params.vaddr(segment.base_vpn) + record * RECORD
        )
    return log, kernel.stats.delta(before)


def test_report_segment_server():
    rows = []
    for appenders in (1, 2, 4):
        for model in MODELS:
            log, stats = run_log(model, appenders)
            # (LOG_PAGES-1) pages of records fill pages 0..14: the
            # frontier ends on the last written page.
            assert log.frontier == LOG_PAGES - 2
            seals = stats["segserver.log_page_sealed"]
            rows.append(
                [
                    appenders,
                    model,
                    seals,
                    round(ratio(stats["plb.update"]
                                + stats["kernel.syscall.set_page_rights"], seals), 1),
                    round(ratio(stats["pgtlb.update"], seals), 1),
                ]
            )
    benchout.record(
        "Section 6: Append-only-log segment server, per-seal costs",
        format_table(
            ["appenders", "model", "pages sealed",
             "per-domain right ops / seal", "TLB group moves / seal"],
            rows,
            title="Sealing costs scale with appenders on the domain-page "
            "models, stay constant (2 moves) on the page-group model",
        ),
    )
    pagegroup_rows = [row for row in rows if row[1] == "pagegroup"]
    # Constant per-seal group moves regardless of appender count.
    assert len({row[4] for row in pagegroup_rows}) == 1
    plb_rows = [row for row in rows if row[1] == "plb"]
    assert plb_rows[-1][3] > plb_rows[0][3]