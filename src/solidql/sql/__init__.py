"""SQL parsing, rendering, and schema-reference extraction."""
