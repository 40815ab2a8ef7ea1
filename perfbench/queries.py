"""The dashboard query suite, frozen for the benchmark.

A copy of the suite in ``benchmarks/test_bench_sharding.py`` (12 global
panels and 16 per-district panels): the ``dashboard`` workload serves the
global panels as ad-hoc federated queries after every poll and registers
the per-district panels as push-mode standing views; the ``gateway``
workload draws its repeated queries from the global panels.  It is copied
rather than imported so that edits to that test cannot move the benchmark.
"""

from inputs import district_names

DISTRICTS = district_names(8)

GLOBAL_QUERIES = [
    # unselective scans with selective results: the evaluation walks the
    # observation population (grows with the partition), the answers stay
    # small (cheap to merge / cache)
    """SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 57) }""",
    """SELECT DISTINCT ?sensor WHERE { ?obs ssn:observedBy ?sensor .
        ?sensor rdf:type ssn:SensingDevice . }""",
    """SELECT ?obs ?t WHERE { ?obs ssn:observationResultTime ?t .
        ?obs rdf:type ssn:Observation . FILTER (?t > 5990000) }""",
    """SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput .
        ?r ssn:hasValue ?v . FILTER (?v > 57) }""",
    """SELECT ?obs ?m WHERE { ?obs africrid:alignmentMethod ?m .
        ?obs rdf:type ssn:Observation . FILTER (?m = "fuzzy") }""",
    """ASK WHERE { ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v .
        FILTER (?v > 100) }""",
    # recency panels: tail-of-stream windows over the observation times
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 700000) }""",
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 730000) }""",
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 745000) }""",
    # a second exceedance level per panel
    """SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 56) }""",
    """SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput .
        ?r ssn:hasValue ?v . FILTER (?v > 58) }""",
    """SELECT DISTINCT ?platform WHERE { ?sensor ssn:onPlatform ?platform .
        ?sensor rdf:type ssn:SensingDevice . }""",
]


def area_query(district: str, threshold: float) -> str:
    feature = f"http://africrid.example.org/resource/feature/{district}"
    return (
        f"SELECT ?obs ?v WHERE {{ ?obs ssn:featureOfInterest <{feature}> . "
        f"?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > {threshold}) }}"
    )


AREA_QUERIES = [
    area_query(district, threshold)
    for district in DISTRICTS
    for threshold in (56, 57)
]
