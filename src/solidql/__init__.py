"""Robust text-to-SQL pre-processing and evaluation toolkit."""
