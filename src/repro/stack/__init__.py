"""Protocol composition kernel (Appia/Ensemble-style event routing)."""
