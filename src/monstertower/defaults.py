"""Default series window and lifting budget.

Kept apart from ``series`` and ``tower`` so that the CLI can fill in its
defaults without importing the engines.
"""

DEFAULT_PRECISION = 64
DEFAULT_MAX_LEVEL = 64
