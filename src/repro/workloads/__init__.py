"""Workload generators: text corpus, KV (FASTER-like), page server."""

from .arrivals import (
    ParetoSizes,
    TenantMix,
    arrival_count,
    flash_crowd,
    mmpp_arrivals,
    open_loop,
    poisson_arrivals,
)
from .corpus import TextCorpus, make_text
from .kv import KvOp, KvStoreIndex, YcsbWorkload
from .pageserver import PageRequest, PageServerWorkload
from .tables import Column, LINEITEM_ISH, TableGenerator, TableSchema

__all__ = [
    "arrival_count",
    "open_loop",
    "poisson_arrivals",
    "mmpp_arrivals",
    "flash_crowd",
    "ParetoSizes",
    "TenantMix",
    "TextCorpus",
    "make_text",
    "KvOp",
    "KvStoreIndex",
    "YcsbWorkload",
    "PageRequest",
    "PageServerWorkload",
    "Column",
    "LINEITEM_ISH",
    "TableGenerator",
    "TableSchema",
]
