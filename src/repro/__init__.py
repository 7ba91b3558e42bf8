"""repro — secret-sharing database-as-a-service.

A full reproduction of *"Database Management as a Service: Challenges and
Opportunities"* (Agrawal, El Abbadi, Emekci, Metwally — ICDE 2009): an
outsourced DBMS where a data source splits every value into Shamir shares
across ``n`` independent providers, searchable attributes use the paper's
order-preserving polynomial construction so providers filter exact-match
and range predicates on shares, aggregation is partially computed
provider-side, and joins on referential keys run at the providers.

Quickstart::

    from repro import DataSource, ProviderCluster
    from repro.workloads.employees import employees_table

    cluster = ProviderCluster(n_providers=5, threshold=3)
    source = DataSource(cluster, seed=7)
    source.outsource_table(employees_table(n_rows=1000, seed=7))
    rows = source.sql(
        "SELECT name, salary FROM Employees WHERE salary BETWEEN 10000 AND 40000"
    )

See DESIGN.md for the module map and EXPERIMENTS.md for the reproduced
evaluation.
"""

from . import telemetry
from .client.datasource import DataSource
from .client.updates import LazyUpdateBuffer
from .core.encoding import (
    EXTENDED_ALPHABET,
    STRING_ALPHABET,
    BooleanCodec,
    DateCodec,
    DecimalCodec,
    IntegerCodec,
    StringCodec,
)
from .core.field import DEFAULT_FIELD, PrimeField
from .core.order_preserving import (
    IntegerDomain,
    MonotoneStrawmanScheme,
    OrderPreservingScheme,
)
from .core.scheme import TableSharing
from .core.secrets import ClientSecrets, generate_client_secrets, secrets_with_points
from .core.shamir import ShamirScheme, figure1_shares, salaries_from_figure1
from .errors import (
    ConfigurationError,
    DomainError,
    EncodingError,
    IntegrityError,
    ParseError,
    ProviderError,
    ProviderUnavailableError,
    QueryError,
    QuorumError,
    ReconstructionError,
    ReproError,
    SchemaError,
    ShareError,
    UnsupportedQueryError,
)
from .mashup.engine import MashupEngine
from .mashup.public_catalog import PublicCatalog
from .persistence import (
    load_deployment,
    load_sharded_deployment,
    save_deployment,
    save_sharded_deployment,
)
from .providers.cluster import ProviderCluster
from .providers.failures import Fault, FailureMode
from .providers.provider import ShareProvider
from .trust.assurance import AssuranceWrapper
from .sim.network import LatencyModel, SimulatedNetwork, measure_bytes
from .sim.costmodel import CostModel, CostRecorder
from .sqlengine.catalog import Catalog
from .sqlengine.executor import PlaintextExecutor
from .sqlengine.query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Insert,
    JoinSelect,
    Select,
    Update,
)
from .sqlengine.schema import (
    Column,
    ColumnType,
    ForeignKey,
    TableSchema,
    boolean_column,
    date_column,
    decimal_column,
    integer_column,
    string_column,
)
from .sqlengine.sqlparser import parse_sql
from .sqlengine.table import Table

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "AggregateFunc",
    "AssuranceWrapper",
    "BooleanCodec",
    "EXTENDED_ALPHABET",
    "LazyUpdateBuffer",
    "MashupEngine",
    "PublicCatalog",
    "STRING_ALPHABET",
    "load_deployment",
    "load_sharded_deployment",
    "save_deployment",
    "save_sharded_deployment",
    "Catalog",
    "ClientSecrets",
    "Column",
    "ColumnType",
    "ConfigurationError",
    "CostModel",
    "CostRecorder",
    "DataSource",
    "DateCodec",
    "DecimalCodec",
    "DEFAULT_FIELD",
    "Delete",
    "DomainError",
    "EncodingError",
    "Fault",
    "FailureMode",
    "ForeignKey",
    "Insert",
    "IntegerCodec",
    "IntegerDomain",
    "IntegrityError",
    "JoinSelect",
    "LatencyModel",
    "MonotoneStrawmanScheme",
    "OrderPreservingScheme",
    "ParseError",
    "PlaintextExecutor",
    "PrimeField",
    "ProviderCluster",
    "ProviderError",
    "ProviderUnavailableError",
    "QueryError",
    "QuorumError",
    "ReconstructionError",
    "ReproError",
    "SchemaError",
    "Select",
    "ShamirScheme",
    "ShareError",
    "ShareProvider",
    "SimulatedNetwork",
    "StringCodec",
    "Table",
    "TableSchema",
    "TableSharing",
    "UnsupportedQueryError",
    "Update",
    "boolean_column",
    "date_column",
    "decimal_column",
    "figure1_shares",
    "generate_client_secrets",
    "integer_column",
    "measure_bytes",
    "parse_sql",
    "salaries_from_figure1",
    "secrets_with_points",
    "string_column",
    "telemetry",
]
