"""Default lifting budget.

Kept apart from ``tower`` so that the CLI can fill in its defaults without
importing the engines.
"""

DEFAULT_MAX_LEVEL = 64
