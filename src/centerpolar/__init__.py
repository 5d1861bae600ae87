"""Class-centric expansion and centripetal-constraint metric learning."""

__version__ = "0.1.0"
