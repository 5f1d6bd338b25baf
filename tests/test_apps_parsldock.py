"""Unit tests for the ParslDock application: chemistry, docking, ML, pipeline."""

from statistics import correlation

import pytest

from repro.apps.parsldock.chemistry import Molecule, parse_smiles
from repro.apps.parsldock.docking import (
    DEFAULT_RECEPTOR_SEQUENCE,
    dock,
    dock_batch,
    prepare_ligand,
    prepare_receptor,
)
from repro.apps.parsldock.ml import FINGERPRINT_SIZE, SurrogateModel, fingerprint
from repro.apps.parsldock.pipeline import CANDIDATE_SMILES, DockingCampaign
from repro.apps.parsldock.suite import PARSLDOCK_SUITE


class TestChemistry:
    def test_linear_chain(self):
        mol = parse_smiles("CCO")
        assert mol.atoms == ("C", "C", "O")
        assert len(mol.bonds) == 2
        assert mol.ring_count == 0

    def test_branching(self):
        mol = parse_smiles("CC(C)O")
        # central carbon bonds to three neighbors
        degree = {}
        for a, b in mol.bonds:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert max(degree.values()) == 3

    def test_aromatic_ring(self):
        benzene = parse_smiles("c1ccccc1")
        assert benzene.heavy_atom_count == 6
        assert benzene.ring_count == 1
        assert len(benzene.bonds) == 6  # ring closure included

    def test_two_letter_halogens(self):
        mol = parse_smiles("ClCBr")
        assert mol.atoms == ("Cl", "C", "Br")

    def test_implicit_hydrogens_methane_like(self):
        # lone C has valence 4 -> 4 implicit H
        assert parse_smiles("C").implicit_hydrogens == 4
        # ethanol: C2H6O = 46.07
        assert parse_smiles("CCO").molecular_weight == pytest.approx(46.07, abs=0.05)

    def test_errors(self):
        for bad in ("", "C(", "C)", "C1CC", "X", "C%"):
            with pytest.raises(ValueError):
                parse_smiles(bad)

    def test_conformer_determinism_and_seed_sensitivity(self):
        mol = parse_smiles("CC(C)O")
        assert mol.conformer(1) == mol.conformer(1)
        assert mol.conformer(1) != mol.conformer(2)
        assert len(mol.conformer()) == mol.heavy_atom_count


class TestDocking:
    def test_receptor_profile(self):
        receptor = prepare_receptor()
        assert receptor.sequence == DEFAULT_RECEPTOR_SEQUENCE
        assert receptor.hbond_sites > 0
        assert receptor.hydrophobic_sites > 0

    def test_bad_receptor_sequence(self):
        with pytest.raises(ValueError):
            prepare_receptor("NOT A SEQ 123")
        with pytest.raises(ValueError):
            prepare_receptor("")

    def test_ligand_annotation(self):
        ligand = prepare_ligand("CC(N)C(O)O")
        assert ligand.acceptors >= 3
        assert ligand.donors >= 1

    def test_score_deterministic(self):
        receptor = prepare_receptor()
        ligand = prepare_ligand("CCO")
        assert dock(ligand, receptor) == dock(ligand, receptor)

    def test_exhaustiveness_monotone(self):
        receptor = prepare_receptor()
        ligand = prepare_ligand("CC(C)Cc1ccccc1")
        scores = [
            dock(ligand, receptor, exhaustiveness=e) for e in (1, 2, 4, 8, 16)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))

    def test_exhaustiveness_validation(self):
        with pytest.raises(ValueError):
            dock(prepare_ligand("CCO"), prepare_receptor(), exhaustiveness=0)

    def test_oversized_ligand_penalized(self):
        receptor = prepare_receptor("AV")  # tiny pocket
        small = dock(prepare_ligand("CC"), receptor)
        huge = dock(prepare_ligand("C" * 40), receptor)
        assert huge > small  # steric penalty dominates

    def test_dock_batch_matches_singles(self):
        receptor = prepare_receptor()
        batch = dock_batch(["CCO", "CCN"], receptor)
        assert batch["CCO"] == dock(prepare_ligand("CCO"), receptor)

    def test_scores_differ_across_ligands(self):
        receptor = prepare_receptor()
        scores = set(dock_batch(CANDIDATE_SMILES[:10], receptor).values())
        assert len(scores) >= 9  # essentially all distinct


class TestSurrogate:
    def test_fingerprint_shape(self):
        assert len(fingerprint(parse_smiles("CCO"))) == FINGERPRINT_SIZE

    def test_fit_predict(self):
        receptor = prepare_receptor()
        train = CANDIDATE_SMILES[:16]
        scores = dock_batch(train, receptor)
        model = SurrogateModel().fit(train, [scores[s] for s in train])
        predictions = model.predict(train)
        assert len(predictions) == 16
        # in-sample predictions correlate with truth
        truth = [scores[s] for s in train]
        assert correlation(predictions, truth) > 0.3

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            SurrogateModel().predict(["CCO"])

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            SurrogateModel().fit(["CCO"], [1.0, 2.0])
        with pytest.raises(ValueError):
            SurrogateModel().fit(["CCO"], [1.0])
        with pytest.raises(ValueError):
            SurrogateModel(alpha=0)

    def test_rank_returns_permutation(self):
        receptor = prepare_receptor()
        train = CANDIDATE_SMILES[:12]
        scores = dock_batch(train, receptor)
        model = SurrogateModel().fit(train, [scores[s] for s in train])
        ranked = model.rank(CANDIDATE_SMILES[12:20])
        assert sorted(ranked) == sorted(CANDIDATE_SMILES[12:20])


class TestCampaign:
    def test_run_docks_expected_count(self):
        campaign = DockingCampaign(batch_size=4)
        campaign.run(CANDIDATE_SMILES, rounds=3)
        assert len(campaign.scores) == 12

    def test_best_sorted_ascending(self):
        campaign = DockingCampaign(batch_size=4)
        campaign.run(CANDIDATE_SMILES, rounds=2)
        ranked = campaign.best()
        values = [v for _, v in ranked]
        assert values == sorted(values)
        assert campaign.best(k=3) == ranked[:3]

    def test_no_rescoring(self):
        campaign = DockingCampaign(batch_size=4)
        campaign.dock_batch(CANDIDATE_SMILES[:4])
        new = campaign.dock_batch(CANDIDATE_SMILES[:4])
        assert new == {}

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            DockingCampaign().run(CANDIDATE_SMILES, rounds=0)

    def test_campaign_deterministic(self):
        a = DockingCampaign(batch_size=4)
        b = DockingCampaign(batch_size=4)
        assert a.run(CANDIDATE_SMILES, 3) == b.run(CANDIDATE_SMILES, 3)

    def test_library_exhaustion(self):
        campaign = DockingCampaign(batch_size=10)
        campaign.run(CANDIDATE_SMILES[:6], rounds=5)
        assert len(campaign.scores) == 6  # stops when library is empty


class TestSuiteDefinition:
    def test_ten_cases_with_spread_costs(self):
        works = [case.work for case in PARSLDOCK_SUITE.cases]
        assert len(works) == 10
        assert min(works) < 1.0 and max(works) > 100.0

    def test_all_candidates_parse(self):
        for smiles in CANDIDATE_SMILES:
            parse_smiles(smiles)
