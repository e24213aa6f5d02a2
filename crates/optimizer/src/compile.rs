//! The query optimizer's compile loop: coder → profiler → critic per node
//! (§4), with profiling on sampled inputs and cost/accuracy-based selection
//! among alternative physical implementations.

use crate::coder::{synthesize, CoderContext, CoderFaults};
use crate::rewrite::{rewrite_plan, RewriteEvent};
use kath_exec::{execute_body, id_from_uri, ExecContext, ExecError, PhysicalNode, PhysicalPlan};
use kath_fao::{FunctionBody, FunctionRegistry, FunctionSignature, ProfileStats, VisionImpl};
use kath_lineage::{LineagePolicy, LineageStore};
use kath_model::Verdict;
use kath_parser::{LogicalPlan, StepTag};
use kath_storage::Table;
use std::collections::HashSet;
use std::time::Instant;

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Rows sampled per input relation for profiling.
    pub sample_size: usize,
    /// Minimum acceptable estimated accuracy for a physical implementation.
    pub accuracy_floor: f64,
    /// Injected coder faults (tests/benches).
    pub faults: CoderFaults,
    /// Apply logical rewrites before compiling.
    pub rewrites: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            sample_size: 4,
            accuracy_floor: 0.9,
            faults: CoderFaults::default(),
            rewrites: true,
        }
    }
}

/// A critic intervention (§4: semantic correctness loop).
#[derive(Debug, Clone, PartialEq)]
pub struct CritiqueEvent {
    /// The corrected function.
    pub func_id: String,
    /// The critic's corrective hint.
    pub hint: String,
    /// Version found wrong.
    pub from_ver: u32,
    /// Corrected version.
    pub to_ver: u32,
}

/// A physical implementation choice (§4: "chooses the one that produces
/// acceptable outputs at the lowest cost").
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionEvent {
    /// The function.
    pub func_id: String,
    /// The chosen implementation's note.
    pub chosen: String,
    /// How many candidates were profiled.
    pub candidates: usize,
    /// Profiled cost of the winner.
    pub cost: f64,
    /// Estimated accuracy of the winner.
    pub accuracy: f64,
}

/// The compiler's output.
#[derive(Debug)]
pub struct CompileReport {
    /// The executable physical plan.
    pub physical: PhysicalPlan,
    /// Logical rewrites applied.
    pub rewrites: Vec<RewriteEvent>,
    /// Critic interventions.
    pub critiques: Vec<CritiqueEvent>,
    /// Implementation selections (one per multi-candidate node).
    pub selections: Vec<SelectionEvent>,
}

/// Compiles a verified logical plan: generates function bodies, profiles
/// them on samples, lets the critic check semantics, registers everything in
/// the function registry, and emits the physical plan.
pub fn compile(
    logical: &LogicalPlan,
    ctx: &ExecContext,
    registry: &mut FunctionRegistry,
    clarifications: &[(String, String)],
    opts: &CompileOptions,
) -> Result<CompileReport, ExecError> {
    let sample_ctx = build_sample_ctx(ctx, opts.sample_size);
    compile_on(logical, sample_ctx, registry, clarifications, opts)
}

/// [`compile`] over a given profiling context (see [`build_sample_ctx`]).
fn compile_on(
    logical: &LogicalPlan,
    mut sample_ctx: ExecContext,
    registry: &mut FunctionRegistry,
    clarifications: &[(String, String)],
    opts: &CompileOptions,
) -> Result<CompileReport, ExecError> {
    let (logical, rewrites) = if opts.rewrites {
        rewrite_plan(logical.clone(), true, true)
    } else {
        (logical.clone(), Vec::new())
    };

    let mut physical = PhysicalPlan::default();
    let mut critiques = Vec::new();
    let mut selections = Vec::new();

    for node in &logical.nodes {
        if node.prewritten {
            // The pre-written view-population function of §6, split into its
            // text and scene halves so each materializes its own views.
            for (func, modality) in [
                ("populate_text_views", "text"),
                ("populate_scene_views", "scene"),
            ] {
                let body = FunctionBody::ViewPopulate {
                    modality: modality.into(),
                    implementation: VisionImpl::VlmAccurate,
                    convert_unsupported: false,
                };
                let sig = FunctionSignature::new(
                    func,
                    format!("{} ({modality} half)", node.signature.description),
                    vec![],
                    format!("{modality}_views"),
                );
                if !registry.contains(func) {
                    registry.register(sig, body.clone(), "pre-written (§6)");
                }
                let ver = registry.get(func)?.active;
                // Materialize sampled views so downstream coding can read
                // their schemas.
                let _ = execute_body(
                    &mut sample_ctx,
                    func,
                    ver,
                    &body,
                    &format!("{modality}_views"),
                );
                physical.nodes.push(PhysicalNode {
                    func_id: func.into(),
                    output: format!("{modality}_views"),
                });
            }
            continue;
        }

        let func_id = node.signature.name.clone();
        let sample_snapshot = sample_ctx.catalog.snapshot();
        let coder_ctx = CoderContext {
            catalog: &sample_snapshot,
            clarifications,
            faults: opts.faults,
        };
        let candidates = synthesize(node, &coder_ctx, &sample_ctx.llm);
        assert!(!candidates.is_empty(), "coder produced no candidates");

        // Profile every candidate on a fork of the sample context.
        let mut profiled: Vec<(FunctionBody, String, ProfileStats, Option<Table>)> = Vec::new();
        for (body, note) in &candidates {
            let mut fork = fork_ctx(&sample_ctx);
            let tokens_before = fork.llm.meter().usage().total();
            let started = Instant::now(); // lint: nondet-ok — candidate profiling wall-clock; ranks compile candidates, not query results
            let result = execute_body(&mut fork, &func_id, 1, body, &node.signature.output);
            let runtime_ms = started.elapsed().as_secs_f64() * 1000.0;
            let tokens = fork.llm.meter().usage().total() - tokens_before;
            match result {
                Ok(outcome) if outcome.failed_rows.is_empty() => {
                    profiled.push((
                        body.clone(),
                        note.clone(),
                        ProfileStats {
                            runtime_ms,
                            tokens,
                            rows_in: outcome.rows_in,
                            rows_out: outcome.table.len(),
                            accuracy: None,
                        },
                        Some(outcome.table),
                    ));
                }
                // Candidates that fail on the sample are recorded with no
                // output; the engine's monitor would repair them at run time,
                // but the optimizer prefers alternatives that just work.
                _ => profiled.push((
                    body.clone(),
                    note.clone(),
                    ProfileStats {
                        runtime_ms,
                        tokens,
                        rows_in: 0,
                        rows_out: 0,
                        accuracy: Some(0.0),
                    },
                    None,
                )),
            }
        }

        // Accuracy: agreement with the first (reference) candidate, blended
        // with an offline prior per implementation. The prior is the paper's
        // "offline profiling" (§4): small online samples can be degenerate
        // (e.g. every sampled poster happens to be boring), and the prior
        // keeps known-weak implementations from slipping through.
        if let Some(reference) = profiled.first().and_then(|p| p.3.clone()) {
            let n = profiled.len();
            for item in profiled.iter_mut().take(n) {
                let acc = match &item.3 {
                    Some(out) => 0.5 * agreement(&reference, out) + 0.5 * accuracy_prior(&item.0),
                    None => 0.0,
                };
                item.2.accuracy = Some(acc);
            }
        }

        // Select: cheapest candidate meeting the accuracy floor; if none
        // meets it, the most accurate one.
        let chosen_idx = {
            let eligible: Vec<usize> = (0..profiled.len())
                .filter(|&i| profiled[i].2.accuracy.unwrap_or(1.0) >= opts.accuracy_floor)
                .collect();
            if eligible.is_empty() {
                (0..profiled.len())
                    .max_by(|&a, &b| {
                        profiled[a]
                            .2
                            .accuracy
                            .unwrap_or(0.0)
                            .total_cmp(&profiled[b].2.accuracy.unwrap_or(0.0))
                    })
                    .unwrap_or(0)
            } else {
                *eligible
                    .iter()
                    .min_by(|&&a, &&b| profiled[a].2.cost().total_cmp(&profiled[b].2.cost()))
                    .expect("non-empty")
            }
        };
        let (body, note, stats, _) = profiled.swap_remove(chosen_idx);
        if candidates.len() > 1 {
            selections.push(SelectionEvent {
                func_id: func_id.clone(),
                chosen: note.clone(),
                candidates: candidates.len(),
                cost: stats.cost(),
                accuracy: stats.accuracy.unwrap_or(1.0),
            });
        }
        let ver = registry.register(node.signature.clone(), body.clone(), note);
        registry.set_profile(&func_id, ver, stats)?;

        // Materialize the winner's sample output for downstream nodes.
        let mut active_body = body;
        let mut active_ver = ver;
        let _ = execute_body(
            &mut sample_ctx,
            &func_id,
            active_ver,
            &active_body,
            &node.signature.output,
        );

        // Critic: semantic direction check on score functions (§4's example
        // of a reversed recency score).
        if matches!(node.tag, StepTag::RecencyScore) {
            if let Ok(out) = sample_ctx.catalog.get(&node.signature.output) {
                let samples: Vec<(f64, f64)> = out
                    .rows()
                    .iter()
                    .filter_map(|r| {
                        let y = out.schema().index_of("year")?;
                        let s = out.schema().index_of("recency_score")?;
                        Some((r[y].as_f64()?, r[s].as_f64()?))
                    })
                    .collect();
                let verdict = sample_ctx
                    .llm
                    .critique_monotonic("assign a recency score based on release year", &samples);
                if let Verdict::Mismatch { hint } = verdict {
                    // Coder retries without the fault; critic re-checks.
                    let fixed_snapshot = sample_ctx.catalog.snapshot();
                    let fixed_ctx = CoderContext {
                        catalog: &fixed_snapshot,
                        clarifications,
                        faults: CoderFaults {
                            reversed_recency: false,
                        },
                    };
                    let fixed = synthesize(node, &fixed_ctx, &sample_ctx.llm);
                    let (fixed_body, _) = fixed.into_iter().next().expect("candidate");
                    let to_ver = registry.add_version(
                        &func_id,
                        fixed_body.clone(),
                        format!("critic: {hint}"),
                    )?;
                    critiques.push(CritiqueEvent {
                        func_id: func_id.clone(),
                        hint,
                        from_ver: active_ver,
                        to_ver,
                    });
                    active_body = fixed_body;
                    active_ver = to_ver;
                    let _ = execute_body(
                        &mut sample_ctx,
                        &func_id,
                        active_ver,
                        &active_body,
                        &node.signature.output,
                    );
                }
            }
        }

        physical.nodes.push(PhysicalNode {
            func_id,
            output: node.signature.output.clone(),
        });
    }

    Ok(CompileReport {
        physical,
        rewrites,
        critiques,
        selections,
    })
}

/// Offline accuracy prior per implementation (the "offline profiling" of
/// §4), blended with online sample agreement during selection.
fn accuracy_prior(body: &FunctionBody) -> f64 {
    match body {
        FunctionBody::VisualClassify { implementation, .. } => match implementation {
            VisionImpl::VlmAccurate => 0.97,
            VisionImpl::Cascade => 0.93,
            VisionImpl::VlmCheap => 0.88,
            VisionImpl::Ocr => 0.55,
        },
        _ => 1.0,
    }
}

/// Row-wise agreement between two tables on their last column (the computed
/// flag/score), used as the accuracy estimate for implementation selection.
fn agreement(reference: &Table, candidate: &Table) -> f64 {
    if reference.is_empty() && candidate.is_empty() {
        return 1.0;
    }
    if reference.len() != candidate.len() || reference.is_empty() {
        return 0.0;
    }
    let rc = reference.schema().arity() - 1;
    let cc = candidate.schema().arity() - 1;
    let matches = reference
        .rows()
        .iter()
        .zip(candidate.rows())
        .filter(|(a, b)| a[rc] == b[cc])
        .count();
    matches as f64 / reference.len() as f64
}

/// Builds the profiling context: sampled base tables, the media those
/// samples reference, fresh lineage with recording off.
///
/// Media join their rows through the trailing id of their URI
/// ([`id_from_uri`] against the `did`/`vid` columns), and view population
/// handles each document and image on its own. So the sample keeps only
/// the items whose id a sampled row names (a semi-join), and every sampled
/// view row is the one the full registry would give: profiling costs
/// O(`sample_size`), not O(corpus).
fn build_sample_ctx(ctx: &ExecContext, sample_size: usize) -> ExecContext {
    let mut sample = ExecContext::new(ctx.llm.clone());
    sample.lineage = LineageStore::with_policy(LineagePolicy::Off);
    let mut dids = HashSet::new();
    let mut vids = HashSet::new();
    for name in ctx.catalog.table_names() {
        if let Ok(table) = ctx.catalog.get(&name) {
            let mut t = table.sample(sample_size);
            t.set_name(&name);
            collect_ids(&t, "did", &mut dids);
            collect_ids(&t, "vid", &mut vids);
            sample.catalog.register_or_replace(t);
        }
    }
    for doc in referenced(ctx.media.documents(), |d| &d.uri, &dids) {
        sample.media.add_document(doc.clone());
    }
    for image in referenced(ctx.media.images(), |i| &i.uri, &vids) {
        sample.media.add_image(image.clone());
    }
    sample
}

/// Adds the integer values of `table`'s `column`, if it has one, to `ids`.
fn collect_ids(table: &Table, column: &str, ids: &mut HashSet<i64>) {
    if let Some(c) = table.schema().index_of(column) {
        ids.extend(table.rows().iter().filter_map(|r| r[c].as_int()));
    }
}

/// The media items whose URI id is in `ids`. If any URI of the modality has
/// no id, view population numbers items by position instead, and only the
/// whole modality reproduces those numbers, so every item is kept.
fn referenced<'a, T>(
    items: Vec<&'a T>,
    uri: impl Fn(&T) -> &str,
    ids: &HashSet<i64>,
) -> Vec<&'a T> {
    let keyed: Vec<(Option<i64>, &T)> = items
        .into_iter()
        .map(|i| (id_from_uri(uri(i)), i))
        .collect();
    let whole = keyed.iter().any(|(id, _)| id.is_none());
    keyed
        .into_iter()
        .filter(|(id, _)| whole || id.is_some_and(|id| ids.contains(&id)))
        .map(|(_, item)| item)
        .collect()
}

/// Forks the sample context for one candidate profile run. The catalog is
/// forked, not cloned: a `SharedCatalog` clone would share the version
/// chain, leaking one candidate's materializations into the next.
fn fork_ctx(sample: &ExecContext) -> ExecContext {
    let mut fork = ExecContext::new(sample.llm.clone());
    fork.lineage = LineageStore::with_policy(LineagePolicy::Off);
    fork.media = sample.media.clone();
    fork.catalog = sample.catalog.fork();
    fork.table_lids = sample.table_lids.clone();
    fork
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_media::{BBox, Color, Document, Image, ImageObject, MediaFormat};
    use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
    use kath_parser::{generate_logical_plan, NlParser};
    use kath_storage::{DataType, Schema, Value};

    const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                            they are, but the poster should be 'boring'";

    fn full_ctx() -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let movies = Table::from_rows(
            "movie_table",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("did", DataType::Int),
                ("vid", DataType::Int),
            ]),
            vec![
                vec![
                    1i64.into(),
                    "Guilty by Suspicion".into(),
                    1991i64.into(),
                    1i64.into(),
                    1i64.into(),
                ],
                vec![
                    2i64.into(),
                    "Clean and Sober".into(),
                    1988i64.into(),
                    2i64.into(),
                    2i64.into(),
                ],
                vec![
                    3i64.into(),
                    "Quiet Days".into(),
                    1975i64.into(),
                    3i64.into(),
                    3i64.into(),
                ],
            ],
        )
        .unwrap();
        ctx.ingest_table(movies, "file://data/movies").unwrap();
        ctx.media.add_document(Document::new(
            "doc://plot/1",
            "A gun fight and a murder shake the studio. A man jumped off a plane.",
        ));
        ctx.media.add_document(Document::new(
            "doc://plot/2",
            "A calm recovery. Tea in a quiet garden.",
        ));
        ctx.media.add_document(Document::new(
            "doc://plot/3",
            "An ordinary week of routine walks.",
        ));
        // Boring posters for 1 and 2, vivid one for 3.
        for id in [1i64, 2] {
            ctx.media.add_image(
                Image::new(format!("file://posters/{id}.png"), MediaFormat::Png)
                    .with_color(Color::rgb(110, 110, 110))
                    .with_object(
                        ImageObject::new("portrait", BBox::new(0.3, 0.2, 0.7, 0.8))
                            .with_saliency(0.25),
                    ),
            );
        }
        ctx.media.add_image(
            Image::new("file://posters/3.png", MediaFormat::Png)
                .with_color(Color::rgb(230, 30, 30))
                .with_color(Color::rgb(30, 30, 230))
                .with_object(ImageObject::new("person", BBox::new(0.1, 0.1, 0.5, 0.9)))
                .with_object(ImageObject::new(
                    "motorcycle",
                    BBox::new(0.4, 0.5, 0.9, 0.95),
                ))
                .with_object(ImageObject::new(
                    "explosion",
                    BBox::new(0.6, 0.1, 0.95, 0.4),
                )),
        );
        ctx
    }

    fn flagship_logical(ctx: &ExecContext) -> (LogicalPlan, Vec<(String, String)>) {
        let parser = NlParser::new(ctx.llm.clone());
        let channel = ScriptedChannel::new([
            "The movie plot contains scenes that are uncommon in real life",
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ]);
        let outcome = parser.parse(FLAGSHIP, channel.as_ref());
        let plan = generate_logical_plan(&outcome.sketch, "movie_table");
        (plan, outcome.clarifications)
    }

    #[test]
    fn compile_produces_a_runnable_physical_plan() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let report = compile(
            &logical,
            &ctx,
            &mut registry,
            &clars,
            &CompileOptions::default(),
        )
        .unwrap();
        // 2 view-population halves + 10 generated nodes.
        assert_eq!(report.physical.nodes.len(), 12);
        assert!(registry.contains("classify_boring"));
        assert!(registry.contains("gen_excitement_score"));
        // The visual classifier had alternatives profiled.
        let sel = report
            .selections
            .iter()
            .find(|s| s.func_id == "classify_boring")
            .expect("selection event");
        assert_eq!(sel.candidates, 4);
        assert!(sel.accuracy >= 0.75);
        // Profiles were recorded on the winning versions.
        let entry = registry.get("classify_boring").unwrap();
        assert!(entry.active_version().profile.is_some());
    }

    #[test]
    fn critic_catches_injected_reversed_recency() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let opts = CompileOptions {
            faults: CoderFaults {
                reversed_recency: true,
            },
            ..CompileOptions::default()
        };
        let report = compile(&logical, &ctx, &mut registry, &clars, &opts).unwrap();
        assert_eq!(report.critiques.len(), 1);
        let c = &report.critiques[0];
        assert_eq!(c.func_id, "gen_recency_score");
        assert!(c.hint.contains("direction") || c.hint.contains("flip"));
        // The registry keeps both the wrong and the corrected version.
        let entry = registry.get("gen_recency_score").unwrap();
        assert_eq!(entry.versions.len(), 2);
        assert_eq!(entry.active, 2);
        assert!(entry.versions[1].note.starts_with("critic:"));
    }

    #[test]
    fn without_fault_no_critique_is_needed() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let report = compile(
            &logical,
            &ctx,
            &mut registry,
            &clars,
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(report.critiques.is_empty());
        assert_eq!(registry.get("gen_recency_score").unwrap().versions.len(), 1);
    }

    #[test]
    fn ocr_loses_selection_to_vlm_on_accuracy() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let report = compile(
            &logical,
            &ctx,
            &mut registry,
            &clars,
            &CompileOptions::default(),
        )
        .unwrap();
        let chosen = &registry
            .get("classify_boring")
            .unwrap()
            .active_version()
            .body;
        let FunctionBody::VisualClassify { implementation, .. } = chosen else {
            panic!()
        };
        // OCR agrees too rarely with the reference to pass the floor.
        assert_ne!(*implementation, VisionImpl::Ocr);
        let _ = report;
    }

    #[test]
    fn sampled_tables_bound_profiling_cost() {
        let ctx = full_ctx();
        let sample = build_sample_ctx(&ctx, 2);
        assert_eq!(sample.catalog.get("movie_table").unwrap().len(), 2);
        assert_eq!(
            sample.catalog.get("movie_table").unwrap().name(),
            "movie_table"
        );
        // Media are cut to the documents and images of the sampled did/vid
        // values (1 and 2), so view population profiles the sample only.
        assert_eq!(sample.media.counts(), (2, 2, 0));
        assert!(sample.media.document("doc://plot/2").is_ok());
        assert!(sample.media.document("doc://plot/3").is_err());
        assert!(sample.media.image("file://posters/2.png").is_ok());
        assert!(sample.media.image("file://posters/3.png").is_err());
    }

    /// What compile decided: the plan, selections, critiques, and every
    /// version's body, note, profiled tokens and output rows.
    fn decisions(
        sample: ExecContext,
        logical: &LogicalPlan,
        clars: &[(String, String)],
        opts: &CompileOptions,
    ) -> String {
        let mut registry = FunctionRegistry::new();
        let report = compile_on(logical, sample, &mut registry, clars, opts).unwrap();
        let mut out = format!("{:?}\n{:?}\n", report.physical, report.critiques);
        for s in &report.selections {
            out += &format!(
                "{} {} {} {}\n",
                s.func_id, s.chosen, s.candidates, s.accuracy
            );
        }
        let mut names = registry.names();
        names.sort_unstable();
        for name in names {
            let entry = registry.get(name).unwrap();
            for v in &entry.versions {
                let profile = v.profile.as_ref().map(|p| (p.tokens, p.rows_out));
                out += &format!(
                    "{name} {} {:?} {} {profile:?}\n",
                    entry.active, v.body, v.note
                );
            }
        }
        out
    }

    /// Asserts compile decides the same on the sample context as on the
    /// full-media reference: the same sampled tables with every document
    /// and image, with and without the reversed-recency fault.
    fn assert_matches_full_media(ctx: &ExecContext, sample_size: usize) {
        let (logical, clars) = flagship_logical(ctx);
        for reversed_recency in [false, true] {
            let opts = CompileOptions {
                sample_size,
                faults: CoderFaults { reversed_recency },
                ..CompileOptions::default()
            };
            let mut reference = build_sample_ctx(ctx, sample_size);
            reference.media = ctx.media.clone();
            assert_eq!(
                decisions(build_sample_ctx(ctx, sample_size), &logical, &clars, &opts),
                decisions(reference, &logical, &clars, &opts)
            );
        }
    }

    #[test]
    fn sampled_media_decide_as_the_full_registry() {
        assert_matches_full_media(&full_ctx(), 2);
    }

    #[test]
    fn id_less_uris_keep_the_whole_modality() {
        let mut ctx = full_ctx();
        // No trailing id: view population numbers documents by position.
        // This one sorts last, so it takes did 3, a sampled movie's.
        ctx.media.add_document(Document::new(
            "doc://plot/intro",
            "A gun fight opens the festival. An explosion follows.",
        ));
        assert_eq!(build_sample_ctx(&ctx, 3).media.counts(), (3, 4, 0));
        assert_matches_full_media(&ctx, 3);
    }

    #[test]
    fn agreement_measures_last_column_matches() {
        let schema = Schema::of(&[("id", DataType::Int), ("flag", DataType::Bool)]);
        let a = Table::from_rows(
            "a",
            schema.clone(),
            vec![
                vec![1i64.into(), true.into()],
                vec![2i64.into(), false.into()],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "b",
            schema,
            vec![
                vec![1i64.into(), true.into()],
                vec![2i64.into(), true.into()],
            ],
        )
        .unwrap();
        assert_eq!(agreement(&a, &a), 1.0);
        assert_eq!(agreement(&a, &b), 0.5);
        let empty = Table::new("e", Schema::of(&[("x", DataType::Int)]));
        assert_eq!(agreement(&empty, &empty), 1.0);
        assert_eq!(agreement(&a, &empty), 0.0);
        let _ = Value::Null;
    }
}
