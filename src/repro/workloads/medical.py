"""A medical-records-like workload (Sec. II-A's "1 million medical records").

The paper's second quoted intersection cost uses "a real dataset
consisting of approximately 1 million medical records".  We generate a
synthetic equivalent: patient records with national-id-like keys, so the
intersection experiment (matching patients across two institutions) and
the scalability experiments have a realistically keyed large table.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim.rng import DeterministicRNG
from ..sqlengine.schema import TableSchema, date_column, integer_column, string_column
from ..sqlengine.table import Table
from .distributions import clamped_normal_int, distinct_ints

#: The scale the paper quotes; benchmarks run a scaled sample and
#: extrapolate linearly (the protocols are linear in record count).
PAPER_RECORD_COUNT = 1_000_000

PATIENT_ID_LO, PATIENT_ID_HI = 10_000_000, 99_999_999

_CONDITIONS = [
    "FLU", "ASTHMA", "DIABETES", "FRACTURE", "MIGRAINE", "ANEMIA",
    "ECZEMA", "ANGINA",
]


def medical_schema() -> TableSchema:
    """Patients(pid, condition, age, admitted) — pid is the match key."""
    return TableSchema(
        name="Patients",
        columns=(
            integer_column(
                "pid", PATIENT_ID_LO, PATIENT_ID_HI, domain_label="domain/pid"
            ),
            string_column("condition", 10),
            integer_column("age", 0, 120),
            date_column("admitted"),
        ),
        primary_key="pid",
    )


def medical_table(n_rows: int, seed: int = 0) -> Table:
    """A synthetic patient table with distinct ids."""
    import datetime

    rng = DeterministicRNG(seed, "workload/medical")
    pids = distinct_ints(rng.substream("pid"), n_rows, PATIENT_ID_LO, PATIENT_ID_HI)
    age = clamped_normal_int(rng.substream("age"), 48.0, 20.0, 0, 120)
    dates = rng.substream("dates")
    base = datetime.date(2005, 1, 1)
    rows = [
        {
            "pid": pid,
            "condition": rng.choice(_CONDITIONS),
            "age": age(),
            "admitted": base + datetime.timedelta(days=dates.randint(0, 1460)),
        }
        for pid in pids
    ]
    return Table(medical_schema(), rows)


def overlapping_patient_ids(
    n_site_a: int, n_site_b: int, overlap: float, seed: int = 0
) -> Tuple[List[int], List[int]]:
    """Two institutions' patient-id sets with a controlled overlap fraction.

    ``overlap`` is the fraction of the smaller set shared by both — the
    quantity the intersection protocols compute.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    rng = DeterministicRNG(seed, "workload/medical/overlap")
    shared_count = int(min(n_site_a, n_site_b) * overlap)
    total = n_site_a + n_site_b - shared_count
    pool = distinct_ints(rng, total, PATIENT_ID_LO, PATIENT_ID_HI)
    shared = pool[:shared_count]
    only_a = pool[shared_count:shared_count + (n_site_a - shared_count)]
    only_b = pool[shared_count + (n_site_a - shared_count):]
    return shared + only_a, shared + only_b
