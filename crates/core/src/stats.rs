//! Live workload statistics and strategy advice.
//!
//! §3.1 leaves the replication decision to a DBA who "is knowledgeable
//! enough to realize that replication should only be specified on
//! reference paths that are frequently accessed and, at the same time,
//! infrequently updated". This module measures the quantities that
//! judgement needs — the sharing level `f`, object sizes `r`/`s`, and the
//! replicated-value size `k` — directly from the stored data, and feeds
//! them into the §6 cost model to produce a recommendation.

use crate::database::Database;
use crate::error::{DbError, Result};
use crate::objects::read_object;
use fieldrep_costmodel::{recommend, IndexSetting, Params, Recommendation};
use fieldrep_model::{Object, Value};
use std::collections::BTreeMap;

/// Measured statistics for one reference path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathStats {
    /// Source-set cardinality (the model's `|R|`).
    pub source_count: u64,
    /// Distinct terminal objects actually referenced (the model's `|S|`;
    /// unreferenced members of the terminal set are irrelevant to the
    /// path's costs).
    pub terminal_count: u64,
    /// Sources whose chain reaches a terminal (complete chains).
    pub complete_chains: u64,
    /// Average sharing level `f` = complete chains / distinct terminals.
    pub sharing: f64,
    /// Average encoded size of a source object's *base* fields (the
    /// model's `r`, excluding replication annotations).
    pub source_bytes: f64,
    /// Average encoded size of a terminal object's base fields (`s`).
    pub terminal_bytes: f64,
    /// Average encoded size of the values the path would replicate (`k`).
    pub replicated_bytes: f64,
}

impl PathStats {
    /// Convert into cost-model parameters, supplying the workload knobs
    /// the data cannot reveal (selectivities).
    pub fn params(&self, read_sel: f64, update_sel: f64) -> Params {
        Params {
            s_count: (self.terminal_count.max(1)) as f64,
            sharing: self.sharing.max(1.0),
            read_sel,
            update_sel,
            r_bytes: self.source_bytes.max(1.0),
            s_bytes: self.terminal_bytes.max(1.0),
            repl_field_bytes: self.replicated_bytes.max(1.0),
            ..Params::default()
        }
    }
}

fn base_size(obj: &Object, def: &fieldrep_model::TypeDef) -> usize {
    // Encoded size of the object with annotations stripped.
    let bare = Object {
        type_id: obj.type_id,
        values: obj.values.clone(),
        annotations: Vec::new(),
    };
    bare.encoded_len(def)
}

impl Database {
    /// Measure [`PathStats`] for a dotted reference path (replicated or
    /// not): scans the source set once, walks every chain.
    pub fn analyze_path(&mut self, dotted: &str) -> Result<PathStats> {
        let resolved = self.catalog().resolve_path_str(dotted)?;
        if resolved.hops.is_empty() {
            return Err(DbError::Unsupported(format!(
                "{dotted:?} has no reference hops to analyse"
            )));
        }
        let set = self.catalog().set(resolved.set).clone();
        let sources = self.file_oids(set.file)?;

        let src_def = self.catalog().type_def(set.elem_type).clone();
        let term_type = *resolved.node_types.last().unwrap();
        let term_def = self.catalog().type_def(term_type).clone();

        let mut per_terminal: BTreeMap<fieldrep_storage::Oid, u64> = BTreeMap::new();
        let mut src_bytes = 0u64;
        let mut complete = 0u64;
        for &src in &sources {
            let obj = {
                let ctx = self.ctx();
                read_object(ctx.sm, ctx.cat, src)?
            };
            src_bytes += base_size(&obj, &src_def) as u64;
            // Walk the chain.
            let mut cur = Some(src);
            let mut cur_obj = Some(obj);
            for &hop in &resolved.hops {
                let o = match &cur_obj {
                    Some(o) => o,
                    None => break,
                };
                match &o.values[hop] {
                    Value::Ref(next) if !next.is_null() => {
                        cur = Some(*next);
                        let ctx = self.ctx();
                        cur_obj = Some(read_object(ctx.sm, ctx.cat, *next)?);
                    }
                    _ => {
                        cur = None;
                        cur_obj = None;
                    }
                }
            }
            if let Some(t) = cur {
                if cur_obj.is_some() {
                    *per_terminal.entry(t).or_default() += 1;
                    complete += 1;
                }
            }
        }

        // Terminal sizes and replicated-value sizes.
        let mut term_bytes = 0u64;
        let mut repl_bytes = 0u64;
        // Use a fake path-def shaped view for terminal_values: we only
        // need the terminal field list.
        for &t in per_terminal.keys() {
            let obj = {
                let ctx = self.ctx();
                read_object(ctx.sm, ctx.cat, t)?
            };
            term_bytes += base_size(&obj, &term_def) as u64;
            let vals: Vec<Value> = resolved
                .terminal_fields
                .iter()
                .map(|&i| obj.values[i].clone())
                .collect();
            repl_bytes += Value::encode_list(&vals).len() as u64;
        }
        let n_term = per_terminal.len() as u64;

        Ok(PathStats {
            source_count: sources.len() as u64,
            terminal_count: n_term,
            complete_chains: complete,
            sharing: if n_term == 0 {
                0.0
            } else {
                complete as f64 / n_term as f64
            },
            source_bytes: if sources.is_empty() {
                0.0
            } else {
                src_bytes as f64 / sources.len() as f64
            },
            terminal_bytes: if n_term == 0 {
                0.0
            } else {
                term_bytes as f64 / n_term as f64
            },
            replicated_bytes: if n_term == 0 {
                0.0
            } else {
                repl_bytes as f64 / n_term as f64
            },
        })
    }

    /// Measure the path, then ask the §6 model which strategy is cheapest
    /// at the given workload mix. `read_sel`/`update_sel` are the §6
    /// selectivities; `p_update` the update probability of the mix.
    pub fn advise_path(
        &mut self,
        dotted: &str,
        setting: IndexSetting,
        read_sel: f64,
        update_sel: f64,
        p_update: f64,
    ) -> Result<(PathStats, Recommendation)> {
        let stats = self.analyze_path(dotted)?;
        let params = stats.params(read_sel, update_sel);
        Ok((stats, recommend(&params, setting, p_update)))
    }
}
