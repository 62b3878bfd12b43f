"""Variance-components estimation in linear random-effects models, exact
quadratic-form moment algebra, and a seeded Monte Carlo verification harness."""

__version__ = "0.1.0"
