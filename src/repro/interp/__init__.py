"""Concrete execution of the mini IR: memory model, interpreter, traces."""

from .memory import Memory, MemoryError_
from .events import FunctionTrace
from .interpreter import FuelExhausted, Interpreter, InterpreterError
from .stats import OpMix

__all__ = [
    "FuelExhausted",
    "FunctionTrace",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "MemoryError_",
    "OpMix",
]
