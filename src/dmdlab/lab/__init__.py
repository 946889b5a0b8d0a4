"""Experiment runner: JSON configs, named presets, CSV/SVG artifacts."""
