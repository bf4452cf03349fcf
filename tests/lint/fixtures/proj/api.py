"""Re-export facade: callers import the constructors from here."""

from proj.core import make_generator, make_unseeded

__all__ = ["make_generator", "make_unseeded"]
