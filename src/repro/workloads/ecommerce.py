"""E-commerce interaction-log workload (the paper's Introduction).

The intro motivates outsourcing with e-commerce applications that
"maintain data or log information for every user interaction rather than
only storing transaction data", causing "explosive growth in the amount
of data".  This workload generates such an interaction log — session
events with Zipf-distributed products and users — sized and typed for the
grouped/top-k analytics queries the extension features support.
"""

from __future__ import annotations

import datetime

from ..core.encoding import EXTENDED_ALPHABET
from ..sim.rng import DeterministicRNG, zipf_sampler
from ..sqlengine.schema import (
    TableSchema,
    date_column,
    integer_column,
    string_column,
)
from ..sqlengine.table import Table

EVENT_TYPES = ["VIEW", "CART", "BUY", "RETURN"]

#: Purchase amounts in cents; VIEW/CART events carry amount 0.
AMOUNT_LO, AMOUNT_HI = 0, 500_000


def clicklog_schema() -> TableSchema:
    """Events(event_id, user, product, action, amount_cents, day).

    ``user`` uses the extended (base-37) alphabet so handles with digits
    work; ``amount_cents`` is randomly shared — it is aggregated, never
    filtered on, so it gets information-theoretic secrecy for free.
    """
    return TableSchema(
        name="Events",
        columns=(
            integer_column("event_id", 1, 10_000_000),
            string_column("user", 8, alphabet=EXTENDED_ALPHABET),
            integer_column("product", 1, 10_000),
            string_column("action", 6),
            integer_column(
                "amount_cents", AMOUNT_LO, AMOUNT_HI, searchable=False
            ),
            date_column("day"),
        ),
        primary_key="event_id",
    )


def clicklog_table(
    n_events: int,
    n_users: int = 50,
    n_products: int = 500,
    seed: int = 0,
    start_day: datetime.date = datetime.date(2008, 11, 1),
    n_days: int = 30,
) -> Table:
    """Generate a click log with Zipf-hot products and users."""
    if n_events < 1:
        raise ValueError("need at least one event")
    rng = DeterministicRNG(seed, "workload/ecommerce")
    users = [
        f"U{index:03d}" for index in range(n_users)
    ]
    user_draw = zipf_sampler(rng.substream("users"), n_users, 1.1)
    product_draw = zipf_sampler(rng.substream("products"), n_products, 1.2)
    actions = rng.substream("actions")
    amounts = rng.substream("amounts")
    days = rng.substream("days")
    rows = []
    for event_id in range(1, n_events + 1):
        action = actions.choice(EVENT_TYPES)
        amount = (
            amounts.randint(500, AMOUNT_HI) if action in ("BUY", "RETURN") else 0
        )
        rows.append(
            {
                "event_id": event_id,
                "user": users[user_draw() - 1],
                "product": product_draw(),
                "action": action,
                "amount_cents": amount if action != "RETURN" else amount,
                "day": start_day + datetime.timedelta(days=days.randint(0, n_days - 1)),
            }
        )
    return Table(clicklog_schema(), rows)
