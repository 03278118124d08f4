"""Routing protocol agents on a common table and forwarding base."""

from .aodv import AodvAgent
from .dymo import DymoAgent
from .olsr import OlsrAgent
from .zrp import ZrpAgent

__all__ = ["AodvAgent", "DymoAgent", "OlsrAgent", "ZrpAgent"]
