"""Return-time prediction for web users under right censoring."""

__version__ = "0.1.0"
