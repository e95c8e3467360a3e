#include "hotspot/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/run_report.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "hotspot/train_state.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {
namespace {

/// Fused finiteness-and-norm scan: the squared L2 norm over a tensor
/// group absorbs any NaN/Inf element (NaN propagates, Inf saturates),
/// so one pass yields both the clipping norm and the divergence signal.
double squared_norm(const std::vector<nn::Param*>& params,
                    bool gradients) {
  double sq = 0.0;
  for (const nn::Param* p : params) {
    const double l2 = gradients ? p->grad.l2_norm() : p->value.l2_norm();
    sq += l2 * l2;
  }
  return sq;
}

/// Fails fast when a resumed run's config differs from the one that
/// wrote the checkpoint in any field that affects the math (the
/// checkpoint location/cadence is deliberately excluded).
void check_resume_config(const MgdConfig& now, const MgdConfig& stored) {
  auto require = [](bool same, const char* field) {
    HSDL_CHECK_MSG(same, "resume config mismatch: '"
                             << field
                             << "' differs from the checkpointed run");
  };
  require(now.learning_rate == stored.learning_rate, "learning_rate");
  require(now.decay == stored.decay, "decay");
  require(now.decay_step == stored.decay_step, "decay_step");
  require(now.batch == stored.batch, "batch");
  require(now.max_iters == stored.max_iters, "max_iters");
  require(now.validate_every == stored.validate_every, "validate_every");
  require(now.patience == stored.patience, "patience");
  require(now.optimizer == stored.optimizer, "optimizer");
  require(now.epsilon == stored.epsilon, "epsilon");
  require(now.balanced_batches == stored.balanced_batches,
          "balanced_batches");
  require(now.max_grad_norm == stored.max_grad_norm, "max_grad_norm");
  require(now.max_recoveries == stored.max_recoveries, "max_recoveries");
  require(now.recovery_lr_decay == stored.recovery_lr_decay,
          "recovery_lr_decay");
}

}  // namespace

void validate_mgd_config(const MgdConfig& config) {
  HSDL_CHECK(config.learning_rate > 0.0);
  HSDL_CHECK(config.decay > 0.0 && config.decay <= 1.0);
  HSDL_CHECK(config.decay_step > 0 && config.batch > 0);
  HSDL_CHECK(config.max_iters > 0 && config.validate_every > 0);
  HSDL_CHECK_MSG(config.patience > 0,
                 "patience must be positive — zero would stop training at "
                 "the first non-improving validation unconditionally");
  HSDL_CHECK(config.epsilon >= 0.0 && config.epsilon < 0.5);
  HSDL_CHECK(config.checkpoint_every > 0);
  HSDL_CHECK(config.max_grad_norm >= 0.0);
  HSDL_CHECK(config.recovery_lr_decay > 0.0 &&
             config.recovery_lr_decay <= 1.0);
}

nn::Tensor biased_targets(const std::vector<std::size_t>& labels,
                          double epsilon) {
  HSDL_CHECK(epsilon >= 0.0 && epsilon < 0.5);
  nn::Tensor t({labels.size(), std::size_t{2}});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == kHotspotIndex) {
      t.at(i, 0) = 0.0f;
      t.at(i, 1) = 1.0f;
    } else {
      t.at(i, 0) = static_cast<float>(1.0 - epsilon);
      t.at(i, 1) = static_cast<float>(epsilon);
    }
  }
  return t;
}

Confusion evaluate(HotspotCnn& model, const nn::ClassificationDataset& data,
                   double shift, std::size_t batch) {
  HSDL_CHECK(batch > 0);
  Confusion c;
  if (data.empty()) return c;
  const double threshold = 0.5 - shift;
  const std::size_t batches = (data.size() + batch - 1) / batch;
  // Batches run in parallel, each writing a disjoint probability slice
  // (probabilities() is const and thread-safe; each chunk owns its
  // arena); the confusion counts are then accumulated serially in sample
  // order, so the result matches the serial walk for any thread count.
  std::vector<float> prob_hotspot(data.size());
  parallel_for(0, batches, 1, [&](std::size_t bb, std::size_t be) {
    nn::WorkspaceArena ws;
    for (std::size_t bi = bb; bi < be; ++bi) {
      const std::size_t start = bi * batch;
      const std::size_t end = std::min(start + batch, data.size());
      nn::Tensor probs = model.probabilities(data.gather(start, end), ws);
      for (std::size_t i = start; i < end; ++i)
        prob_hotspot[i] = probs.at(i - start, kHotspotIndex);
      ws.recycle(std::move(probs));
    }
  });
  for (std::size_t i = 0; i < data.size(); ++i)
    c.add(data.label(i) == kHotspotIndex,
          is_flagged(static_cast<double>(prob_hotspot[i]), threshold));
  return c;
}

MgdTrainer::MgdTrainer(const MgdConfig& config) : config_(config) {
  validate_mgd_config(config);
}

TrainResult MgdTrainer::train(HotspotCnn& model,
                              const nn::ClassificationDataset& train_set,
                              const nn::ClassificationDataset& val_set,
                              Rng& rng) {
  return run(model, train_set, val_set, rng, nullptr);
}

TrainResult MgdTrainer::resume(HotspotCnn& model,
                               const nn::ClassificationDataset& train_set,
                               const nn::ClassificationDataset& val_set,
                               Rng& rng) {
  HSDL_CHECK_MSG(!config_.checkpoint_path.empty(),
                 "resume requires checkpoint_path to be set");
  const TrainState state = load_train_state_file(config_.checkpoint_path);
  return run(model, train_set, val_set, rng, &state);
}

TrainResult MgdTrainer::run(HotspotCnn& model,
                            const nn::ClassificationDataset& train_set,
                            const nn::ClassificationDataset& val_set,
                            Rng& rng, const TrainState* restored) {
  HSDL_CHECK(!train_set.empty() && !val_set.empty());
  HSDL_TRACE_SPAN("mgd.train");
  TrainResult result;
  WallTimer timer;
  double elapsed_base = 0.0;

  // Telemetry sink: an externally installed stream wins (BiasedLearner
  // shares one across rounds); otherwise config_.telemetry_path opens a
  // per-run stream here. Emission is observation-only — it never touches
  // the RNG streams or float math, so telemetry cannot perturb numerics.
  telemetry::JsonlStream owned_stream(
      telemetry_ != nullptr ? std::string() : config_.telemetry_path);
  telemetry::JsonlStream* tele =
      telemetry_ != nullptr ? telemetry_ : &owned_stream;
  const bool tele_on = tele->enabled();

  nn::Sequential& net = model.net();
  const std::vector<nn::Param*> params = net.params();
  nn::SgdOptimizer sgd(config_.learning_rate);
  nn::AdamOptimizer adam(config_.learning_rate);
  const bool use_adam = config_.optimizer == OptimizerKind::kAdam;
  auto opt_step = [&] {
    use_adam ? adam.step(params) : sgd.step(params);
  };
  auto current_lr = [&] {
    return use_adam ? adam.learning_rate() : sgd.learning_rate();
  };
  auto set_lr = [&](double lr) {
    if (use_adam)
      adam.set_learning_rate(lr);
    else
      sgd.set_learning_rate(lr);
  };
  auto snapshot_opt = [&] {
    return use_adam ? adam.snapshot_state(params) : sgd.snapshot_state(params);
  };
  nn::SoftmaxCrossEntropy loss;

  // Balanced accuracy: with the paper's heavily imbalanced sets, overall
  // accuracy would score the trivial all-non-hotspot model at ~93 % and the
  // stop criterion would freeze there; the mean of per-class recalls keeps
  // hotspot recall in the convergence signal.
  auto val_score = [&]() {
    HSDL_TRACE_SPAN("mgd.validate");
    const Confusion c = evaluate(model, val_set);
    const double hs_recall = c.accuracy();
    const double nhs_total = static_cast<double>(c.fp + c.tn);
    const double nhs_recall =
        nhs_total > 0.0 ? static_cast<double>(c.tn) / nhs_total : 1.0;
    return 0.5 * (hs_recall + nhs_recall);
  };

  std::vector<nn::Tensor> best;
  double best_score = -1.0;
  std::size_t stale = 0;
  std::size_t recoveries = 0;
  std::size_t start_iter = 1;

  if (restored != nullptr) {
    check_resume_config(config_, restored->config);
    nn::restore_params(restored->params, params);
    HSDL_CHECK_MSG(restored->best_params.size() == params.size(),
                   "checkpoint best-snapshot has "
                       << restored->best_params.size()
                       << " tensors, model has " << params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      HSDL_CHECK_MSG(same_shape(restored->best_params[i], params[i]->value),
                     "checkpoint best-snapshot shape mismatch for param '"
                         << params[i]->name << "'");
    best = restored->best_params;
    best_score = restored->best_score;
    stale = restored->stale;
    recoveries = restored->recoveries;
    result.history = restored->history;
    elapsed_base = restored->elapsed_seconds;
    if (use_adam)
      adam.restore_state(params, restored->opt_slots,
                         restored->opt_step_count);
    else
      sgd.restore_state(params, restored->opt_slots);
    set_lr(restored->learning_rate);
    rng.set_state(restored->sampler_rng);
    model.rng().set_state(restored->model_rng);
    start_iter = static_cast<std::size_t>(restored->iter) + 1;
    result.iters_run = static_cast<std::size_t>(restored->iter);
    if (restored->finished) {
      // The checkpointed run had already converged: hand back its
      // result as-is (best weights restored into the model) instead of
      // training past the recorded stopping point.
      nn::restore_params(best, params);
      result.best_val_accuracy = best_score;
      result.seconds = elapsed_base;
      result.recoveries = recoveries;
      result.final_learning_rate = restored->learning_rate;
      HSDL_LOG(kInfo) << "resume: checkpoint at iter " << restored->iter
                      << " is already finished; returning its result";
      return result;
    }
    HSDL_LOG(kInfo) << "resume: continuing from iter " << restored->iter
                    << " (lr " << restored->learning_rate << ", "
                    << result.history.size() << " validation points)";
    if (tele_on) {
      json::Value rec = json::Value::object();
      rec.set("event", json::Value("resume"));
      rec.set("iter", json::Value(restored->iter));
      rec.set("lr", json::Value(restored->learning_rate));
      rec.set("recoveries", json::Value(recoveries));
      tele->emit(rec);
    }
  } else {
    best = nn::snapshot_params(params);
  }

  auto capture = [&](std::size_t iter, bool finished) {
    TrainState st;
    st.config = config_;
    st.iter = iter;
    st.finished = finished;
    st.learning_rate = current_lr();
    st.elapsed_seconds = elapsed_base + timer.seconds();
    st.recoveries = recoveries;
    st.best_score = best_score;
    st.stale = stale;
    st.history = result.history;
    st.params = nn::snapshot_params(params);
    st.best_params = best;
    st.opt_slots = snapshot_opt();
    st.opt_step_count = adam.step_count();
    st.sampler_rng = rng.state();
    st.model_rng = model.rng().state();
    st.extra = checkpoint_extra_;
    return st;
  };

  // Divergence-watchdog anchor: the most recent state known to be
  // numerically sound (initial weights, then refreshed at every
  // validation). Rollback restores params and optimizer moments from
  // here; the sampler RNG keeps advancing so the retry draws fresh
  // batches instead of replaying the one that diverged.
  std::vector<nn::Tensor> good_params = nn::snapshot_params(params);
  std::vector<nn::Tensor> good_slots = snapshot_opt();
  std::uint64_t good_t = adam.step_count();

  bool stopped = false;
  std::vector<std::size_t> batch_labels;
  for (std::size_t iter = start_iter;
       iter <= config_.max_iters && !stopped; ++iter) {
    // Algorithm 1 line 5: sample m training instances.
    const auto idx = config_.balanced_batches
                         ? train_set.sample_batch_balanced(config_.batch, rng)
                         : train_set.sample_batch(config_.batch, rng);
    const nn::Tensor x = train_set.gather(idx);
    // Sized to the actual draw: a short batch must not leak stale labels
    // from the previous iteration or mismatch the row count of x.
    batch_labels.resize(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
      batch_labels[i] = train_set.label(idx[i]);
    const nn::Tensor targets = biased_targets(batch_labels, config_.epsilon);

    // Lines 6-9: average gradient via one batched backprop.
    net.zero_grad();
    const nn::Tensor logits = net.forward(x, /*train=*/true);
    double batch_loss = loss.forward(logits, targets);
    net.backward(loss.backward());
    if (fault_hook_) fault_hook_(iter, batch_loss, params);

    // Divergence watchdog: one fused scan over the gradients (and the
    // loss) before the update, one over the params after it, so a
    // non-finite batch can never reach the stored weights.
    const double grad_sq = squared_norm(params, /*gradients=*/true);
    bool diverged = !std::isfinite(batch_loss) || !std::isfinite(grad_sq);
    if (!diverged) {
      if (config_.max_grad_norm > 0.0) {
        const double norm = std::sqrt(grad_sq);
        if (norm > config_.max_grad_norm) {
          const auto scale =
              static_cast<float>(config_.max_grad_norm / norm);
          for (nn::Param* p : params) p->grad.scale(scale);
        }
      }
      // Lines 10-14: weight update with step decay.
      opt_step();
      diverged = !std::isfinite(squared_norm(params, /*gradients=*/false));
    }

    if (diverged) {
      ++recoveries;
      nn::restore_params(good_params, params);
      if (use_adam)
        adam.restore_state(params, good_slots, good_t);
      else
        sgd.restore_state(params, good_slots);
      if (recoveries > config_.max_recoveries) {
        HSDL_LOG(kError) << "watchdog: divergence at iter " << iter
                         << " exceeded max_recoveries ("
                         << config_.max_recoveries
                         << "); weights restored to the last good state";
        HSDL_CHECK_MSG(false, "training diverged "
                                  << recoveries
                                  << " times (non-finite loss/gradients/"
                                     "params at iter "
                                  << iter
                                  << "); last good weights restored");
      }
      const double lr = current_lr() * config_.recovery_lr_decay;
      set_lr(lr);
      HSDL_LOG(kWarn) << "watchdog: non-finite loss/gradients/params at iter "
                      << iter << "; rolled back to last good state, lr -> "
                      << lr << " (recovery " << recoveries << "/"
                      << config_.max_recoveries << ")";
      if (metrics::enabled()) {
        static metrics::Counter& rec_c = metrics::counter("train.recoveries");
        rec_c.increment();
      }
      if (tele_on) {
        json::Value rec = json::Value::object();
        rec.set("event", json::Value("watchdog_recovery"));
        rec.set("iter", json::Value(iter));
        rec.set("lr", json::Value(lr));
        rec.set("recoveries", json::Value(recoveries));
        tele->emit(rec);
      }
    } else {
      if (iter % config_.decay_step == 0)
        set_lr(current_lr() * config_.decay);

      if (iter % config_.validate_every == 0 || iter == config_.max_iters) {
        const double score = val_score();
        TrainPoint point{iter, elapsed_base + timer.seconds(), batch_loss,
                         score};
        result.history.push_back(point);
        if (callback_) callback_(point);
        HSDL_LOG(kInfo) << "iter " << iter << ": train loss " << batch_loss
                        << ", val balanced accuracy " << score << ", lr "
                        << current_lr();

        if (metrics::enabled()) {
          static metrics::Counter& val_c = metrics::counter(
              "train.validations");
          static metrics::Gauge& lr_g = metrics::gauge("train.learning_rate");
          val_c.increment();
          lr_g.set(current_lr());
        }
        if (tele_on) {
          json::Value rec = json::Value::object();
          rec.set("event", json::Value("validation"));
          rec.set("iter", json::Value(iter));
          rec.set("val_accuracy", json::Value(score));
          rec.set("best_val_accuracy", json::Value(std::max(score,
                                                            best_score)));
          rec.set("seconds", json::Value(point.seconds));
          tele->emit(rec);
        }

        if (score > best_score) {
          best_score = score;
          best = nn::snapshot_params(params);
          stale = 0;
        } else if (++stale >= config_.patience) {
          stopped = true;
        }
        // The validated iterate is numerically sound: refresh the
        // watchdog anchor.
        good_params = nn::snapshot_params(params);
        good_slots = snapshot_opt();
        good_t = adam.step_count();
      }
    }

    if (metrics::enabled()) {
      static metrics::Counter& iter_c = metrics::counter("train.iterations");
      iter_c.increment();
    }
    if (tele_on) {
      json::Value rec = json::Value::object();
      rec.set("event", json::Value("iteration"));
      rec.set("iter", json::Value(iter));
      rec.set("loss", json::Value(batch_loss));  // null when non-finite
      rec.set("lr", json::Value(current_lr()));
      rec.set("grad_norm", json::Value(std::sqrt(grad_sq)));
      rec.set("recoveries", json::Value(recoveries));
      tele->emit(rec);
    }

    result.iters_run = iter;
    const bool finished = stopped || iter == config_.max_iters;
    if (!config_.checkpoint_path.empty() &&
        (iter % config_.checkpoint_every == 0 || finished))
      save_train_state_file(config_.checkpoint_path, capture(iter, finished));
    if (iteration_hook_) iteration_hook_(iter);
  }

  nn::restore_params(best, params);
  result.best_val_accuracy = best_score;
  result.seconds = elapsed_base + timer.seconds();
  result.recoveries = recoveries;
  result.final_learning_rate = current_lr();
  if (tele_on) {
    json::Value rec = json::Value::object();
    rec.set("event", json::Value("train_result"));
    rec.set("iters_run", json::Value(result.iters_run));
    rec.set("best_val_accuracy", json::Value(result.best_val_accuracy));
    rec.set("seconds", json::Value(result.seconds));
    rec.set("recoveries", json::Value(result.recoveries));
    rec.set("final_lr", json::Value(result.final_learning_rate));
    rec.set("epsilon", json::Value(config_.epsilon));
    tele->emit(rec);
  }
  return result;
}

}  // namespace hsdl::hotspot
