"""ABL-PGCACHE — Ablation: page-group holder size and kind.

Design question from DESIGN.md §5(2): the real PA-RISC has exactly four
PID registers; the paper's evaluation substitutes the Wilkes & Sears
LRU page-group cache.  This sweep runs the lock-heavy transactional
workload (per-page lock groups, the configuration that "can fill the
cache of active page-groups") and the RPC workload across holder
capacities, for both the register file and the LRU cache.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.os.kernel import Kernel
from repro.workloads.rpc import RPCConfig, RPCWorkload
from repro.workloads.txn import TransactionalVM, TxnConfig

TXN = TxnConfig(db_pages=32, transactions=8, touches_per_txn=20, concurrent=1,
                lock_strategy="page", write_fraction=0.3, seed=11)
RPC = RPCConfig(calls=40, arg_pages=1, private_segments=6, private_pages=2)
CAPACITIES = [4, 8, 16, 32]


def run_txn(holder: str, capacity: int):
    kernel = Kernel("pagegroup", system_options={
        "group_holder": holder, "group_capacity": capacity})
    return TransactionalVM(kernel, TXN).run()


def run_rpc(holder: str, capacity: int):
    kernel = Kernel("pagegroup", system_options={
        "group_holder": holder, "group_capacity": capacity})
    return RPCWorkload(kernel, RPC).run()


def test_report_pgcache_ablation():
    rows = []
    for capacity in CAPACITIES:
        for holder in ("registers", "cache"):
            if holder == "registers" and capacity > 8:
                continue  # real hardware stops at a few registers
            txn = run_txn(holder, capacity)
            assert txn.commits == TXN.transactions
            rpc = run_rpc(holder, capacity)
            rows.append(
                [
                    holder,
                    capacity,
                    txn.stats["group_reload"],
                    rpc.stats["group_reload"],
                    rpc.stats["pid.replace"],
                ]
            )
    benchout.record(
        "Ablation: page-group holder (4-register PA-RISC file vs "
        "Wilkes & Sears LRU cache)",
        format_table(
            ["holder", "capacity", "txn group reloads", "rpc group reloads",
             "register replacements"],
            rows,
            title="Group reload traps vs holder capacity (paper: 4 registers "
            "'limits the number of page-groups that a domain can "
            "efficiently access')",
        ),
    )
    # Direction: a larger LRU cache absorbs the lock-group working set.
    cache_rows = [row for row in rows if row[0] == "cache"]
    assert cache_rows[0][2] >= cache_rows[-1][2]
    # And at equal capacity, the two holders behave comparably at 4.
    four_entry = [row for row in rows if row[1] == 4]
    assert len(four_entry) == 2
