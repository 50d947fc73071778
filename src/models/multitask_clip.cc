#include "models/multitask_clip.h"

#include <array>
#include <map>

#include "common/logging.h"

namespace spindle {

namespace {

/** ImageBind-style encoder configurations per modality. */
struct EncoderCfg
{
    const char *name;
    OpType type;
    std::int64_t seq;
    std::int64_t hidden;
    std::uint32_t layers;
};

constexpr std::array<EncoderCfg, 6> kEncoders = {{
    {"text", OpType::Text, 77, 1024, 24},      // ~302M params
    {"vision", OpType::Vision, 257, 1280, 32}, // ~629M params
    {"audio", OpType::Audio, 229, 768, 12},    // ~85M params
    {"depth", OpType::Depth, 257, 384, 12},    // ~21M params
    {"thermal", OpType::Thermal, 197, 768, 12},// ~85M params
    {"motion", OpType::Motion, 196, 512, 6},   // ~19M params
}};

/** Modality-pair tasks; indices into kEncoders, heavy = uses vision. */
struct TaskCfg
{
    int a;
    int b;
    bool heavy;
};

constexpr std::array<TaskCfg, 10> kTasks = {{
    {0, 2, false}, // (text, audio)      — Fig. 4 Task1
    {1, 3, true},  // (vision, depth)    — Fig. 4 Task2
    {2, 4, false}, // (audio, thermal)   — Fig. 4 Task3
    {5, 4, false}, // (motion, thermal)  — Fig. 4 Task4
    {0, 1, true},  // (text, vision)
    {0, 3, false}, // (text, depth)
    {1, 2, true},  // (vision, audio)
    {0, 4, false}, // (text, thermal)
    {1, 5, true},  // (vision, motion)
    {0, 5, false}, // (text, motion)
}};

} // namespace

ComputationGraph
buildMultitaskClip(const MultitaskClipConfig &config)
{
    fatalIf(config.numTasks < 1 || config.numTasks > kTasks.size(),
            "buildMultitaskClip: numTasks must be 1..", kTasks.size());

    WorkloadBuilder builder;

    // Encoders are parameter-shared across tasks; batch may differ
    // per task, so the shared handle is declared once per modality
    // from a canonical spec (only layer count matters for keys).
    std::map<int, SharedModule> shared;
    for (std::size_t e = 0; e < kEncoders.size(); ++e) {
        const EncoderCfg &enc = kEncoders[e];
        shared.emplace(static_cast<int>(e),
                       builder.declareShared(transformerStack(
                           enc.name, enc.type, config.batchLight,
                           enc.seq, enc.hidden, enc.layers)));
    }

    for (std::uint32_t t = 0; t < config.numTasks; ++t) {
        const TaskCfg &task_cfg = kTasks[t];
        const std::int64_t batch =
            task_cfg.heavy ? config.batchHeavy : config.batchLight;
        const std::int32_t task = builder.addTask(
            strCat("clip-task", t, "-", kEncoders[task_cfg.a].name, "-",
                   kEncoders[task_cfg.b].name));

        auto add_encoder = [&](int e) {
            const EncoderCfg &enc = kEncoders[e];
            ModuleSpec spec = transformerStack(
                strCat("t", t, ".", enc.name), enc.type, batch, enc.seq,
                enc.hidden, enc.layers);
            return builder.addModule(task, spec, &shared.at(e));
        };
        NodeRange enc_a = add_encoder(task_cfg.a);
        NodeRange enc_b = add_encoder(task_cfg.b);

        // Contrastive head over the wider of the two embeddings.
        const std::int64_t hidden =
            std::max(kEncoders[task_cfg.a].hidden,
                     kEncoders[task_cfg.b].hidden);
        NodeRange loss = builder.addModule(
            task, lossModule(strCat("t", t, ".contrastive"), batch,
                             hidden));
        builder.addFlow(enc_a, loss);
        builder.addFlow(enc_b, loss);
    }
    return builder.build();
}

} // namespace spindle
