"""The participant satisfaction model.

Section 2.1 builds on the query-allocation satisfaction model of Quiané-Ruiz,
Lamarre and Valduriez (VLDB Journal 2009): participants have *intentions*
about what the system should do with/for them; the *adequacy* of one system
decision measures how well it matches those intentions; *satisfaction* is the
long-run aggregation of adequacy, and *allocation satisfaction* restricts the
aggregation to the decisions the system actually imposed on the participant.

* :mod:`repro.satisfaction.intentions` — participant intentions (preferences
  over partners and over the work they are asked to do);
* :mod:`repro.satisfaction.adequacy` — per-decision adequacy measures;
* :mod:`repro.satisfaction.tracker` — long-run satisfaction tracking;
* :mod:`repro.satisfaction.aggregate` — global/local satisfaction
  aggregation (the "global vision" versus "local vision" of Section 3).
"""
